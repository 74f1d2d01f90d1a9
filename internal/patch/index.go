package patch

import (
	"fmt"
	"sort"
	"sync"
)

// Constraint is the kind of approximate constraint a PatchIndex maintains.
type Constraint uint8

const (
	// NearlyUnique marks a nearly unique column (NUC, Definition III.4).
	NearlyUnique Constraint = iota
	// NearlySorted marks a nearly sorted column (NSC, Definition III.5).
	NearlySorted
)

// String names the constraint.
func (c Constraint) String() string {
	switch c {
	case NearlyUnique:
		return "NEARLY UNIQUE"
	case NearlySorted:
		return "NEARLY SORTED"
	default:
		return fmt.Sprintf("Constraint(%d)", uint8(c))
	}
}

// Index is a PatchIndex: the set of patches P_c for one column of one table,
// split per partition (Section VI-A2: "they support partitioning by creating
// a PatchIndex for each partition separately"). It is an in-memory structure;
// its creation is logged to the WAL but its patches are not (Section V).
type Index struct {
	mu         sync.RWMutex
	table      string
	column     string
	constraint Constraint
	kind       Kind // requested representation (may be Auto)
	threshold  float64
	sets       []Set // one per partition, nil until built
	descending bool  // NSC only: order relation is >= instead of <=
	origin     string
}

// NewIndex creates an empty PatchIndex shell for a table with numPartitions
// partitions. Sets are attached per partition via SetPartition (the
// "AppendToIndex" post-query of Section V fills them).
func NewIndex(table, column string, c Constraint, kind Kind, threshold float64, numPartitions int) (*Index, error) {
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("patch: index %s.%s: threshold %v outside [0,1]", table, column, threshold)
	}
	if numPartitions < 1 {
		return nil, fmt.Errorf("patch: index %s.%s: need at least one partition", table, column)
	}
	return &Index{
		table:      table,
		column:     column,
		constraint: c,
		kind:       kind,
		threshold:  threshold,
		sets:       make([]Set, numPartitions),
	}, nil
}

// Table returns the indexed table name.
func (ix *Index) Table() string { return ix.table }

// Column returns the indexed column name.
func (ix *Index) Column() string { return ix.column }

// Constraint returns the maintained constraint kind.
func (ix *Index) Constraint() Constraint { return ix.constraint }

// RequestedKind returns the representation requested at creation (possibly
// Auto).
func (ix *Index) RequestedKind() Kind { return ix.kind }

// Threshold returns the classification threshold the index was created with.
func (ix *Index) Threshold() float64 { return ix.threshold }

// SetDescending marks a NSC index as maintaining a descending order.
func (ix *Index) SetDescending(d bool) { ix.descending = d }

// SetOrigin records who created the index: "manual" (CREATE PATCHINDEX, the
// default) or "auto" (the background tuner).
func (ix *Index) SetOrigin(o string) {
	ix.mu.Lock()
	ix.origin = o
	ix.mu.Unlock()
}

// Origin reports who created the index ("manual" when never set).
func (ix *Index) Origin() string {
	ix.mu.RLock()
	o := ix.origin
	ix.mu.RUnlock()
	if o == "" {
		return "manual"
	}
	return o
}

// Descending reports whether a NSC index maintains a descending order.
func (ix *Index) Descending() bool { return ix.descending }

// NumPartitions returns the partition count the index was created for.
func (ix *Index) NumPartitions() int { return len(ix.sets) }

// SetPartition attaches the patch set of one partition. ids must be sorted
// unique local row ids; numRows is the partition size at build time.
func (ix *Index) SetPartition(part int, ids []uint64, numRows int) error {
	if part < 0 || part >= len(ix.sets) {
		return fmt.Errorf("patch: index %s.%s: partition %d out of range", ix.table, ix.column, part)
	}
	s, err := Build(ix.kind, ids, numRows)
	if err != nil {
		return err
	}
	ix.mu.Lock()
	ix.sets[part] = s
	ix.mu.Unlock()
	return nil
}

// Partition returns the patch set of partition part (nil if not built yet).
func (ix *Index) Partition(part int) Set {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if part < 0 || part >= len(ix.sets) {
		return nil
	}
	return ix.sets[part]
}

// Ready reports whether every partition has a built patch set.
func (ix *Index) Ready() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, s := range ix.sets {
		if s == nil {
			return false
		}
	}
	return true
}

// Cardinality returns the total |P_c| across partitions.
func (ix *Index) Cardinality() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, s := range ix.sets {
		if s != nil {
			n += s.Cardinality()
		}
	}
	return n
}

// NumRows returns the total covered row count across partitions.
func (ix *Index) NumRows() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, s := range ix.sets {
		if s != nil {
			n += s.NumRows()
		}
	}
	return n
}

// ExceptionRate returns |P_c|/|R| over all built partitions.
func (ix *Index) ExceptionRate() float64 {
	rows := ix.NumRows()
	if rows == 0 {
		return 0
	}
	return float64(ix.Cardinality()) / float64(rows)
}

// MemoryBytes returns the total patch payload size across partitions.
func (ix *Index) MemoryBytes() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, s := range ix.sets {
		if s != nil {
			n += s.MemoryBytes()
		}
	}
	return n
}

// UpdatePartition merges additional patch row ids into a partition's set and
// extends its covered row count. addIDs may reference both newly appended
// rows and existing rows (condition NUC2 can retroactively turn an old row
// into a patch when a duplicate of its value arrives). The set is rebuilt in
// O(|P_c|) — no table scan — which is the "lightweight support for table
// inserts" the paper's future work calls for.
func (ix *Index) UpdatePartition(part int, addIDs []uint64, numRows int) error {
	if part < 0 || part >= len(ix.sets) {
		return fmt.Errorf("patch: index %s.%s: partition %d out of range", ix.table, ix.column, part)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	old := ix.sets[part]
	if old == nil {
		return fmt.Errorf("patch: index %s.%s: partition %d not built", ix.table, ix.column, part)
	}
	if numRows < old.NumRows() {
		return fmt.Errorf("patch: index %s.%s: partition %d cannot shrink (%d < %d)",
			ix.table, ix.column, part, numRows, old.NumRows())
	}
	// Merge the existing sorted ids with the (sorted, deduplicated) additions.
	add := append([]uint64{}, addIDs...)
	sortUint64(add)
	merged := make([]uint64, 0, old.Cardinality()+len(add))
	it := old.Iter(0)
	ai := 0
	for it.Valid() || ai < len(add) {
		switch {
		case !it.Valid():
			merged = appendUnique(merged, add[ai])
			ai++
		case ai >= len(add) || it.Row() < add[ai]:
			merged = appendUnique(merged, it.Row())
			it.Next()
		case it.Row() == add[ai]:
			ai++ // already a patch
		default:
			merged = appendUnique(merged, add[ai])
			ai++
		}
	}
	s, err := Build(ix.kind, merged, numRows)
	if err != nil {
		return err
	}
	ix.sets[part] = s
	return nil
}

func appendUnique(ids []uint64, id uint64) []uint64 {
	if n := len(ids); n > 0 && ids[n-1] == id {
		return ids
	}
	return append(ids, id)
}

func sortUint64(a []uint64) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// String renders a one-line summary.
func (ix *Index) String() string {
	return fmt.Sprintf("PatchIndex(%s.%s %s kind=%s |P|=%d rate=%.4f)",
		ix.table, ix.column, ix.constraint, ix.kind, ix.Cardinality(), ix.ExceptionRate())
}
