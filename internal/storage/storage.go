// Package storage implements the in-memory columnar table storage of the
// engine: horizontally partitioned tables whose columns are stored as typed
// vectors, with per-block small materialized aggregates (min/max, null
// presence) that query planning turns into scan ranges.
//
// Creating a PatchIndex never changes how tuples are stored (a core design
// point of the paper), so this package knows nothing about patches; the
// PatchSelect operator applies them on top of scans.
package storage

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"

	"patchindex/internal/vector"
)

// BlockSize is the number of rows covered by one small materialized
// aggregate entry (Moerkotte-style min/max per block).
const BlockSize = 4096

// Column describes one column of a table schema.
type Column struct {
	Name string
	Typ  vector.Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from name/type pairs.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// ColumnIndex returns the position of the named column or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Types returns the column types in schema order.
func (s *Schema) Types() []vector.Type {
	ts := make([]vector.Type, len(s.Columns))
	for i, c := range s.Columns {
		ts[i] = c.Typ
	}
	return ts
}

// sma is the small materialized aggregate of one column block.
type sma struct {
	min, max vector.Value
	hasNull  bool
	valid    bool // false until at least one non-null value was seen
}

// columnData holds the values of one column inside one partition, together
// with its block SMAs and the partition-level zone map. The decoded payload
// is an atomic pointer because, for cache-attached tables, eviction unlinks
// it concurrently with lock-free readers: a reader that loaded the pointer
// before the unlink keeps a valid (immutable, GC-protected) vector, it just
// stops being charged against the budget. SMAs and the zone map are never
// evicted — planning stays I/O-free.
type columnData struct {
	vec  atomic.Pointer[vector.Vector]
	smas []sma
	zone sma // partition-level min/max: the zone map entry

	// Cache state. pins/inRing/bytes are guarded by the owning Cache's
	// mutex; refbit is atomic so the resident fast path can mark recency
	// without taking it.
	pins   int
	inRing bool
	bytes  int64
	refbit atomic.Bool
}

// foldSMAs folds the rows of src, which AppendColumns stores from partition
// row start on, into the block SMAs and the zone entry: one typed loop per
// block, in row order. Each min/max is seeded from its current state and
// replaced only on a strict < or >, exactly as comparing each cell as a
// vector.Value would, so the entries come out identical for every chunking
// of the same rows: ties keep the first value (-0 and +0 tie), and a float
// NaN never replaces a bound, but one that comes first pins its block's and
// zone's min and max.
func (c *columnData) foldSMAs(src *vector.Vector, start int) {
	n := src.Len()
	if n == 0 {
		return
	}
	for last := (start + n - 1) / BlockSize; len(c.smas) <= last; {
		c.smas = append(c.smas, sma{})
	}
	switch t := src.Typ; t {
	case vector.Int64, vector.Date:
		foldBlocks(c, src.I64[:n], src.Nulls, start,
			func(v vector.Value) int64 { return v.I64 },
			func(x int64) vector.Value { return vector.Value{Typ: t, I64: x} })
	case vector.Float64:
		foldBlocks(c, src.F64[:n], src.Nulls, start,
			func(v vector.Value) float64 { return v.F64 },
			func(x float64) vector.Value { return vector.FloatValue(x) })
	case vector.String:
		foldBlocks(c, src.Str[:n], src.Nulls, start,
			func(v vector.Value) string { return v.Str },
			func(x string) vector.Value { return vector.StringValue(x) })
	case vector.Bool: // false < true, as 0 < 1
		bits := make([]uint8, n)
		for i, b := range src.B[:n] {
			if b {
				bits[i] = 1
			}
		}
		foldBlocks(c, bits, src.Nulls, start,
			func(v vector.Value) uint8 {
				if v.B {
					return 1
				}
				return 0
			},
			func(x uint8) vector.Value { return vector.BoolValue(x != 0) })
	}
}

// minMax is a running min/max of typed values; valid once it holds one.
type minMax[T cmp.Ordered] struct {
	min, max T
	valid    bool
}

// seedOf is s's min/max read through unbox, the slot the column's type uses.
func seedOf[T cmp.Ordered](s *sma, unbox func(vector.Value) T) minMax[T] {
	if !s.valid {
		return minMax[T]{}
	}
	return minMax[T]{min: unbox(s.min), max: unbox(s.max), valid: true}
}

// store writes m back into s, boxing each bound as Vector.Value would.
func (m minMax[T]) store(s *sma, box func(T) vector.Value) {
	if m.valid {
		s.min, s.max, s.valid = box(m.min), box(m.max), true
	}
}

// foldBlocks folds vals (partition rows start.., NULL where nulls, which is
// nil or as long as vals) into c's block SMAs and zone entry.
func foldBlocks[T cmp.Ordered](c *columnData, vals []T, nulls []bool, start int, unbox func(vector.Value) T, box func(T) vector.Value) {
	z := seedOf(&c.zone, unbox)
	for lo := 0; lo < len(vals); {
		blk := (start + lo) / BlockSize
		hi := min(len(vals), (blk+1)*BlockSize-start)
		s := &c.smas[blk]
		b := seedOf(s, unbox)
		var blkNulls []bool
		if nulls != nil {
			blkNulls = nulls[lo:hi]
		}
		if fold(vals[lo:hi], blkNulls, &b, &z) {
			s.hasNull, c.zone.hasNull = true, true
		}
		b.store(s, box)
		lo = hi
	}
	z.store(&c.zone, box)
}

// fold widens b and z by vals in row order, skipping the rows nulls marks
// (nulls is nil or as long as vals), and reports whether it skipped any.
func fold[T cmp.Ordered](vals []T, nulls []bool, b, z *minMax[T]) (sawNull bool) {
	bmin, bmax, bv := b.min, b.max, b.valid
	zmin, zmax, zv := z.min, z.max, z.valid
	for i, x := range vals {
		if nulls != nil && nulls[i] {
			sawNull = true
			continue
		}
		if !bv {
			bmin, bmax, bv = x, x, true
		} else {
			if x < bmin {
				bmin = x
			}
			if x > bmax {
				bmax = x
			}
		}
		if !zv {
			zmin, zmax, zv = x, x, true
		} else {
			if x < zmin {
				zmin = x
			}
			if x > zmax {
				zmax = x
			}
		}
	}
	*b = minMax[T]{bmin, bmax, bv}
	*z = minMax[T]{zmin, zmax, zv}
	return sawNull
}

// Partition is one horizontal slice of a table. Row ids inside a partition
// are dense local offsets starting at zero.
type Partition struct {
	ID    int
	tab   *Table
	cols  []*columnData
	nrows int
	// staleRows counts rows appended since the last zone-map recompute.
	// Appends widen zone entries in place (they stay correct) but never
	// re-derive them, so a partition with many post-recompute rows is a
	// drift signal: its zones may be far looser than a fresh build's.
	staleRows int

	// Disk state, meaningful only for cache-attached tables. dirty and
	// store are guarded by the cache mutex: dirty partitions (rows not yet
	// checkpointed to store) are unevictable.
	dirty bool
	store *PartStore
}

// NumRows returns the number of rows stored in the partition.
func (p *Partition) NumRows() int { return p.nrows }

// Column returns the full value vector of column col (shared, do not
// mutate), reloading it from the partition's segment file if it was evicted.
// Callers that scan concurrently with cache pressure should prefer
// Table.PinColumn, which keeps the payload charged and unevictable for the
// scan's lifetime; Column is the path for builders and maintainers running
// under the engine's exclusive latches. It panics if a backing segment is
// unreadable — on-disk corruption of checkpointed data is not recoverable
// mid-operation.
func (p *Partition) Column(col int) *vector.Vector {
	cd := p.cols[col]
	if v := cd.vec.Load(); v != nil {
		if p.tab != nil && p.tab.cache != nil {
			cd.refbit.Store(true)
		}
		return v
	}
	v, err := p.tab.cache.touch(p, col)
	if err != nil {
		panic(fmt.Sprintf("storage: reload %s partition %d column %d: %v", p.tab.name, p.ID, col, err))
	}
	return v
}

// ScanRange is a half-open row-id interval [Start,End) within a partition.
type ScanRange struct {
	Start, End uint64
}

// Len returns the number of rows in the range.
func (r ScanRange) Len() uint64 { return r.End - r.Start }

// versionCounter issues globally unique table version stamps, so a table
// dropped and recreated under the same name can never alias an older
// version (see Table.Version).
var versionCounter atomic.Uint64

// Table is a partitioned columnar table.
type Table struct {
	mu         sync.RWMutex
	name       string
	schema     *Schema
	partitions []*Partition
	sortKey    string // declared (exact) sort key, "" if none
	// version is a content version stamp: re-issued from versionCounter on
	// creation and on every append. The serving result cache keys cached
	// result sets on the version vector of all referenced tables, so any
	// row change invalidates them without scanning.
	version atomic.Uint64
	// cache, when non-nil, budgets this table's decoded payloads (durable
	// mode). nil means pure in-memory: payloads are plain heap vectors and
	// every residency fast path short-circuits.
	cache *Cache
}

// NewTable creates an empty table with the given number of partitions.
func NewTable(name string, schema *Schema, numPartitions int) (*Table, error) {
	if numPartitions < 1 {
		return nil, fmt.Errorf("storage: table %s: need at least 1 partition, got %d", name, numPartitions)
	}
	if len(schema.Columns) == 0 {
		return nil, fmt.Errorf("storage: table %s: schema has no columns", name)
	}
	seen := map[string]bool{}
	for _, c := range schema.Columns {
		if seen[c.Name] {
			return nil, fmt.Errorf("storage: table %s: duplicate column %s", name, c.Name)
		}
		seen[c.Name] = true
	}
	t := &Table{name: name, schema: schema}
	t.version.Store(versionCounter.Add(1))
	for i := 0; i < numPartitions; i++ {
		p := &Partition{ID: i, tab: t, cols: make([]*columnData, len(schema.Columns))}
		for c := range schema.Columns {
			cd := &columnData{}
			cd.vec.Store(vector.New(schema.Columns[c].Typ, 0))
			p.cols[c] = cd
		}
		t.partitions = append(t.partitions, p)
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Version returns the table's content version stamp. It changes on every
// append (writers hold the table's exclusive latch in the engine, so a
// reader holding the shared latch sees a stable value covering exactly the
// rows it can scan). Stamps are globally unique across all tables.
func (t *Table) Version() uint64 { return t.version.Load() }

// NumPartitions returns the partition count.
func (t *Table) NumPartitions() int { return len(t.partitions) }

// Partition returns partition i.
func (t *Table) Partition(i int) *Partition { return t.partitions[i] }

// SetSortKey declares that the table is exactly sorted on the named column
// (within each partition). The planner uses this to infer ordering.
func (t *Table) SetSortKey(col string) error {
	if t.schema.ColumnIndex(col) < 0 {
		return fmt.Errorf("storage: table %s: unknown sort key column %s", t.name, col)
	}
	t.sortKey = col
	return nil
}

// SortKey returns the declared sort key column name, or "".
func (t *Table) SortKey() string { return t.sortKey }

// NumRows returns the total number of rows across partitions.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, p := range t.partitions {
		n += p.nrows
	}
	return n
}

// AppendColumns appends whole column vectors (all of equal length, one per
// schema column, in schema order) to a partition. It is the table's only
// append: every engine write and the data generators reach storage here.
func (t *Table) AppendColumns(part int, cols []*vector.Vector) error {
	if part < 0 || part >= len(t.partitions) {
		return fmt.Errorf("storage: table %s: partition %d out of range", t.name, part)
	}
	if len(cols) != len(t.schema.Columns) {
		return fmt.Errorf("storage: table %s: got %d columns, schema has %d", t.name, len(cols), len(t.schema.Columns))
	}
	n := cols[0].Len()
	for c, v := range cols {
		if v.Len() != n {
			return fmt.Errorf("storage: table %s: column %d has %d rows, expected %d", t.name, c, v.Len(), n)
		}
		if v.Typ != t.schema.Columns[c].Typ {
			return fmt.Errorf("storage: table %s: column %s type mismatch: %s vs %s", t.name, t.schema.Columns[c].Name, v.Typ, t.schema.Columns[c].Typ)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.partitions[part]
	if err := t.beginWrite(p); err != nil {
		return err
	}
	for c, v := range cols {
		dst := p.cols[c]
		dst.foldSMAs(v, p.nrows)
		dst.vec.Load().AppendRange(v, 0, n)
	}
	p.nrows += n
	p.staleRows += n
	t.version.Store(versionCounter.Add(1))
	t.endWrite(p)
	return nil
}

// ZoneStaleness reports how much the table's zone maps have drifted from a
// fresh build: the total rows appended since the last RecomputeZones and
// the number of partitions with any such rows. A second degradation signal
// next to the patch ratio.
func (t *Table) ZoneStaleness() (staleRows, stalePartitions int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, p := range t.partitions {
		if p.staleRows > 0 {
			staleRows += p.staleRows
			stalePartitions++
		}
	}
	return staleRows, stalePartitions
}

// RecomputeZones re-derives every partition's zone map entries from the
// block SMAs and resets the staleness counters — called after an index
// rebuild so the drift signal restarts from a clean baseline.
func (t *Table) RecomputeZones() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.partitions {
		for _, c := range p.cols {
			z := sma{}
			for _, s := range c.smas {
				if s.hasNull {
					z.hasNull = true
				}
				if !s.valid {
					continue
				}
				if !z.valid {
					z.min, z.max, z.valid = s.min, s.max, true
					continue
				}
				if s.min.Compare(z.min) < 0 {
					z.min = s.min
				}
				if s.max.Compare(z.max) > 0 {
					z.max = s.max
				}
			}
			c.zone = z
		}
		p.staleRows = 0
	}
}

// PruneRanges computes the scan ranges of a partition that can contain values
// of column col within [lo,hi] (inclusive; a Null bound means unbounded on
// that side). Blocks whose SMA proves emptiness are pruned; adjacent
// surviving blocks are coalesced. keepNulls keeps blocks that contain NULLs
// even if their min/max is outside the bounds.
func (t *Table) PruneRanges(part, col int, lo, hi vector.Value, keepNulls bool) []ScanRange {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p := t.partitions[part]
	cd := p.cols[col]
	var out []ScanRange
	total := uint64(p.nrows)
	for blk := 0; blk*BlockSize < p.nrows; blk++ {
		start := uint64(blk * BlockSize)
		end := start + BlockSize
		if end > total {
			end = total
		}
		keep := true
		if blk < len(cd.smas) {
			s := cd.smas[blk]
			if s.valid {
				// CompareNumeric, not Value.Compare: a float literal bound
				// against an integer column must compare exactly (a plain
				// Compare would read the literal's zero-valued integer slot).
				if !lo.Null && vector.CompareNumeric(s.max, lo) < 0 {
					keep = false
				}
				if !hi.Null && vector.CompareNumeric(s.min, hi) > 0 {
					keep = false
				}
			} else {
				// All-NULL block: no value can match a bound.
				keep = false
			}
			if !keep && keepNulls && s.hasNull {
				keep = true
			}
		}
		if !keep {
			continue
		}
		if n := len(out); n > 0 && out[n-1].End == start {
			out[n-1].End = end
		} else {
			out = append(out, ScanRange{Start: start, End: end})
		}
	}
	return out
}

// ZoneMapEntry is the partition-level min/max summary of one column — the
// zone map the planner consults to skip whole partitions before any morsel
// is scheduled. Entries are maintained on every append and, because recovery
// replays the WAL through the ordinary append path, rebuilt on replay.
type ZoneMapEntry struct {
	Min, Max vector.Value // valid only if Valid
	HasNull  bool         // the column holds at least one NULL in this partition
	Valid    bool         // at least one non-NULL value was seen
	Rows     int          // rows stored in the partition
}

// ZoneMap returns the zone map entry for column col of partition part.
func (t *Table) ZoneMap(part, col int) ZoneMapEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p := t.partitions[part]
	z := p.cols[col].zone
	return ZoneMapEntry{Min: z.min, Max: z.max, HasNull: z.hasNull, Valid: z.valid, Rows: p.nrows}
}

// ZonePrunes reports whether the zone map proves that no row of partition
// part has a value of column col inside [lo,hi] (inclusive; Null bounds are
// unbounded). Mixed int/float bounds compare exactly via CompareNumeric.
// Empty partitions report false — scanning them is already free, and keeping
// them preserves plan shape.
func (t *Table) ZonePrunes(part, col int, lo, hi vector.Value) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p := t.partitions[part]
	if p.nrows == 0 {
		return false
	}
	z := p.cols[col].zone
	if !z.valid {
		// Every row is NULL in this column: no bound can match.
		return true
	}
	if !lo.Null && vector.CompareNumeric(z.max, lo) < 0 {
		return true
	}
	if !hi.Null && vector.CompareNumeric(z.min, hi) > 0 {
		return true
	}
	return false
}

// FullRange returns the single scan range covering all rows of a partition.
func (t *Table) FullRange(part int) []ScanRange {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return []ScanRange{{Start: 0, End: uint64(t.partitions[part].nrows)}}
}

// AttachCache puts the table's decoded payloads under the cache's budget.
// Already-resident columns are charged immediately; partitions without a
// backing segment stay dirty (unevictable) until the first checkpoint writes
// them out.
func (t *Table) AttachCache(c *Cache) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cache = c
	for _, p := range t.partitions {
		c.mu.Lock()
		p.dirty = p.store == nil
		c.mu.Unlock()
		for col := range p.cols {
			c.register(p, col)
		}
	}
}

// CacheAttached reports whether the table's payloads are cache-managed.
func (t *Table) CacheAttached() bool { return t.cache != nil }

// PinColumn returns the resident vector of (part, col) pinned against
// eviction; the caller must run the release func when the scan is done. For
// cache-less tables this is a single atomic load — the disabled path stays
// nanosecond-cheap.
func (t *Table) PinColumn(part, col int) (*vector.Vector, func(), error) {
	p := t.partitions[part]
	if t.cache == nil {
		return p.cols[col].vec.Load(), noopRelease, nil
	}
	return t.cache.pin(p, col)
}

// ColumnOnDisk reports whether (part, col) currently has no decoded payload
// in memory — a cold read would hit the segment file. The scan planner uses
// it to choose between pinning through the cache and streaming a range
// decode that bypasses it.
func (t *Table) ColumnOnDisk(part, col int) bool {
	return t.partitions[part].cols[col].vec.Load() == nil
}

// PartitionClean reports whether the partition's segment file covers all its
// rows (no appends since the last checkpoint). Only clean partitions may be
// scanned from their compressed image.
func (t *Table) PartitionClean(part int) bool {
	if t.cache == nil {
		return false
	}
	p := t.partitions[part]
	t.cache.mu.Lock()
	defer t.cache.mu.Unlock()
	return !p.dirty && p.store != nil
}

// OpenSegment returns the partition's segment store for direct compressed
// reads, or nil if none. Combined with PartitionClean, selective scans use
// this to decode just the pruned ranges without charging the cache.
func (t *Table) OpenSegment(part int) *PartStore {
	p := t.partitions[part]
	if t.cache == nil {
		return nil
	}
	t.cache.mu.Lock()
	defer t.cache.mu.Unlock()
	if p.dirty {
		return nil
	}
	return p.store
}

// beginWrite prepares a partition for appends: all columns resident and the
// partition marked dirty so the clock sweep leaves it alone. No-op without a
// cache. Caller holds t.mu exclusively.
func (t *Table) beginWrite(p *Partition) error {
	c := t.cache
	if c == nil {
		return nil
	}
	c.mu.Lock()
	p.dirty = true
	for col := range p.cols {
		if p.cols[col].vec.Load() == nil {
			if err := c.loadLocked(p, col); err != nil {
				c.mu.Unlock()
				return err
			}
		}
	}
	c.mu.Unlock()
	return nil
}

// endWrite recharges the grown payloads after an append. Caller holds t.mu
// exclusively.
func (t *Table) endWrite(p *Partition) {
	if t.cache == nil {
		return
	}
	for col := range p.cols {
		t.cache.register(p, col)
	}
}

// Dirty reports whether the partition has rows its segment file doesn't.
func (t *Table) Dirty(part int) bool {
	if t.cache == nil {
		return true
	}
	t.cache.mu.Lock()
	defer t.cache.mu.Unlock()
	return t.partitions[part].dirty || t.partitions[part].store == nil
}

// FlushPartition compresses the partition into a new segment file at path
// (atomically) and swaps it in as the backing store, clearing the dirty
// flag. sortedHint marks columns a PatchIndex or sort key proves nearly
// sorted. Returns the on-disk payload size. The table must be cache-attached
// and the caller must hold the engine-level exclusive latch.
func (t *Table) FlushPartition(part int, path string, sortedHint []bool) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.partitions[part]
	c := t.cache
	if c == nil {
		return 0, fmt.Errorf("storage: table %s is not cache-attached", t.name)
	}
	c.mu.Lock()
	for col := range p.cols {
		if p.cols[col].vec.Load() == nil {
			if err := c.loadLocked(p, col); err != nil {
				c.mu.Unlock()
				return 0, err
			}
		}
	}
	c.mu.Unlock()
	store, err := WritePartitionFile(path, p, sortedHint)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	old := p.store
	p.store = store
	p.dirty = false
	c.mu.Unlock()
	old.Close()
	return store.CompressedBytes(), nil
}

// SegmentPath returns the partition's current segment file path ("" if
// none) — recorded in checkpoint manifests.
func (t *Table) SegmentPath(part int) string {
	if t.cache == nil {
		return ""
	}
	t.cache.mu.Lock()
	defer t.cache.mu.Unlock()
	if s := t.partitions[part].store; s != nil {
		return s.path
	}
	return ""
}

// CompressedBytes returns the total on-disk payload bytes across partitions.
func (t *Table) CompressedBytes() int64 {
	if t.cache == nil {
		return 0
	}
	t.cache.mu.Lock()
	defer t.cache.mu.Unlock()
	var total int64
	for _, p := range t.partitions {
		if p.store != nil {
			total += p.store.CompressedBytes()
		}
	}
	return total
}

// RawBytes returns the decoded in-memory size the table would occupy fully
// resident: the sum of resident payload sizes plus, for evicted columns,
// the 8-byte-per-row estimate.
func (t *Table) RawBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	for _, p := range t.partitions {
		for _, cd := range p.cols {
			if v := cd.vec.Load(); v != nil {
				total += v.ByteSize()
			} else {
				total += int64(8 * p.nrows)
			}
		}
	}
	return total
}

// ReleaseStorage detaches the table from its cache (dropping all charges)
// and closes its segment files. Called on table drop and engine close; the
// files themselves are removed by the next checkpoint's orphan sweep.
func (t *Table) ReleaseStorage() {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cache
	if c == nil {
		return
	}
	for _, p := range t.partitions {
		c.forget(p)
		c.mu.Lock()
		store := p.store
		p.store = nil
		c.mu.Unlock()
		store.Close()
	}
	t.cache = nil
}

// LoadTable reconstructs a table from its checkpointed segment files, one
// per partition, leaving every payload on disk: metadata (row counts, SMAs,
// zone maps) loads eagerly, vectors fault in through the cache on first
// touch. This is what makes restart-after-checkpoint fast — no WAL replay of
// checkpointed history and no payload decode until a query needs one.
func LoadTable(name string, schema *Schema, sortKey string, partPaths []string, c *Cache) (*Table, error) {
	if c == nil {
		return nil, fmt.Errorf("storage: LoadTable %s: nil cache", name)
	}
	t := &Table{name: name, schema: schema, sortKey: sortKey, cache: c}
	t.version.Store(versionCounter.Add(1))
	for i, path := range partPaths {
		store, meta, err := OpenPartitionFile(path)
		if err != nil {
			return nil, err
		}
		if len(meta.smas) != len(schema.Columns) {
			store.Close()
			return nil, fmt.Errorf("storage: segment %s has %d columns, schema has %d", path, len(meta.smas), len(schema.Columns))
		}
		p := &Partition{ID: i, tab: t, cols: make([]*columnData, len(schema.Columns)), nrows: meta.nrows, store: store}
		for col := range schema.Columns {
			p.cols[col] = &columnData{smas: meta.smas[col], zone: meta.zones[col]}
		}
		t.partitions = append(t.partitions, p)
	}
	return t, nil
}
