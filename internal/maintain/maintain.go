// Package maintain implements incremental PatchIndex maintenance for table
// appends — the "lightweight support for table inserts" the paper names as
// future work. A Maintainer carries auxiliary state per index so that newly
// appended rows are classified without a full table scan:
//
//   - NUC: a vector.KeyTable of every value seen, with per value its one
//     non-patch row or the mark that it is a patch value. An incoming
//     duplicate of a non-patch value turns *both* rows into patches
//     (condition NUC2 demands all occurrences); duplicates of patch values
//     and NULLs become patches directly. The maintained set stays minimal.
//   - NSC: the last non-patch value per partition. An incoming value that
//     continues the order extends the sorted subsequence; anything else
//     becomes a patch. This greedy rule is correct (NSC1 always holds) but,
//     unlike full re-discovery, not guaranteed minimal — a single huge value
//     can push later values into the patch set. ExceptionRate drift can be
//     detected via Index.ExceptionRate and repaired by re-creating the index.
package maintain

import (
	"fmt"
	"slices"
	"time"

	"patchindex/internal/obs"
	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// rowRef locates a row of a partitioned table.
type rowRef struct {
	part int
	row  uint64
}

// patchValue is the rowRef of a NUC value whose rows are all patches.
var patchValue = rowRef{part: -1}

// Maintainer incrementally maintains one PatchIndex under appends.
type Maintainer struct {
	table *storage.Table
	ix    *patch.Index
	col   int

	// NUC state: values numbers every value seen (NULL included, which is
	// always a patch), and owner[id] is the one row holding value id outside
	// the patches, or patchValue.
	values *vector.KeyTable
	owner  []rowRef
	ids    []int32 // scratch

	// NSC state: last non-patch value per partition (nil if none yet).
	lastVal []vector.Value
	hasLast []bool
}

// NewMaintainer builds the auxiliary state for an existing index by scanning
// the table once (the same cost class as the index creation itself; every
// append afterwards is O(rows appended)).
func NewMaintainer(table *storage.Table, ix *patch.Index) (*Maintainer, error) {
	if !ix.Ready() {
		return nil, fmt.Errorf("maintain: index %s.%s is not built", ix.Table(), ix.Column())
	}
	if ix.Table() != table.Name() {
		return nil, fmt.Errorf("maintain: index belongs to table %s, not %s", ix.Table(), table.Name())
	}
	col := table.Schema().ColumnIndex(ix.Column())
	if col < 0 {
		return nil, fmt.Errorf("maintain: table %s has no column %s", table.Name(), ix.Column())
	}
	m := &Maintainer{table: table, ix: ix, col: col}
	switch ix.Constraint() {
	case patch.NearlyUnique:
		m.values = vector.NewKeyTable([]vector.Type{table.Schema().Columns[col].Typ}, 0)
		for p := 0; p < table.NumPartitions(); p++ {
			v := table.Partition(p).Column(col)
			set := ix.Partition(p)
			for i, id := range m.number(v) {
				owner := rowRef{part: p, row: uint64(i)}
				if v.IsNull(i) || set.Contains(uint64(i)) {
					owner = patchValue
				}
				switch {
				case int(id) == len(m.owner):
					m.owner = append(m.owner, owner)
				case owner == patchValue:
					m.owner[id] = patchValue
				}
			}
		}
	case patch.NearlySorted:
		m.lastVal = make([]vector.Value, table.NumPartitions())
		m.hasLast = make([]bool, table.NumPartitions())
		for p := 0; p < table.NumPartitions(); p++ {
			v := table.Partition(p).Column(col)
			set := ix.Partition(p)
			for i := v.Len() - 1; i >= 0; i-- {
				if !set.Contains(uint64(i)) {
					m.lastVal[p] = v.Value(i)
					m.hasLast[p] = true
					break
				}
			}
		}
	default:
		return nil, fmt.Errorf("maintain: unknown constraint %v", ix.Constraint())
	}
	return m, nil
}

// number returns the KeyTable id of every value of v, inserting the new
// ones; the slice is reused by the next call.
func (m *Maintainer) number(v *vector.Vector) []int32 {
	n := v.Len()
	m.ids = slices.Grow(m.ids[:0], n)[:n]
	m.values.InsertBatch([]*vector.Vector{v}, n, m.ids)
	return m.ids
}

// Index returns the maintained index.
func (m *Maintainer) Index() *patch.Index { return m.ix }

// classify processes the appended column values of one partition, returning
// the patch ids to add (local to the partition; may include pre-existing
// rows for NUC retro-patching, encoded as (part,row) pairs).
func (m *Maintainer) classify(part int, vals *vector.Vector, baseRow uint64) (newIDs []uint64, retro []rowRef) {
	n := vals.Len()
	switch m.ix.Constraint() {
	case patch.NearlyUnique:
		for i, id := range m.number(vals) {
			row := baseRow + uint64(i)
			switch {
			case int(id) == len(m.owner) && !vals.IsNull(i): // a new value
				m.owner = append(m.owner, rowRef{part: part, row: row})
				continue
			case int(id) == len(m.owner): // the first NULL
				m.owner = append(m.owner, patchValue)
			case m.owner[id] != patchValue:
				// Condition NUC2: every occurrence of a duplicated value is
				// a patch — including the previously clean one.
				retro = append(retro, m.owner[id])
				m.owner[id] = patchValue
			}
			newIDs = append(newIDs, row)
		}
	case patch.NearlySorted:
		for i := 0; i < n; i++ {
			row := baseRow + uint64(i)
			if vals.IsNull(i) {
				newIDs = append(newIDs, row)
				continue
			}
			v := vals.Value(i)
			if m.hasLast[part] {
				c := v.Compare(m.lastVal[part])
				if m.ix.Descending() {
					c = -c
				}
				if c < 0 {
					newIDs = append(newIDs, row)
					continue
				}
			}
			m.lastVal[part] = v
			m.hasLast[part] = true
		}
	}
	return newIDs, retro
}

// Set is a group of maintainers covering every PatchIndex of one table, so a
// single append updates all of them consistently.
type Set struct {
	table       *storage.Table
	maintainers []*Maintainer

	// Optional metrics (nil-safe: an unwired set records nothing).
	appends      *obs.Counter
	appendNanos  *obs.Histogram
	patchesAdded *obs.Counter
}

// SetMetrics wires maintenance counters into the given registry: appends
// processed, AppendToIndex latency, and patches added (incl. retro-patches).
func (s *Set) SetMetrics(r *obs.Registry) {
	s.appends = r.Counter("maintain_appends_total")
	s.appendNanos = r.Histogram("maintain_append_nanos")
	s.patchesAdded = r.Counter("maintain_patches_added_total")
}

// NewSet builds maintainers for the given indexes of a table.
func NewSet(table *storage.Table, indexes []*patch.Index) (*Set, error) {
	s := &Set{table: table}
	for _, ix := range indexes {
		m, err := NewMaintainer(table, ix)
		if err != nil {
			return nil, err
		}
		s.maintainers = append(s.maintainers, m)
	}
	return s, nil
}

// Covers reports whether s was built for exactly this table and this index
// list, in order. A cache of Sets uses it to tell a stale entry itself.
func (s *Set) Covers(table *storage.Table, indexes []*patch.Index) bool {
	return s.table == table && slices.EqualFunc(s.maintainers, indexes, func(m *Maintainer, ix *patch.Index) bool {
		return m.ix == ix
	})
}

// Append appends whole column vectors to one partition of the table and
// incrementally maintains every covered PatchIndex.
func (s *Set) Append(part int, cols []*vector.Vector) error {
	s.appends.Inc()
	start := time.Now()
	defer s.appendNanos.ObserveSince(start)
	baseRow := uint64(s.table.Partition(part).NumRows())
	if err := s.table.AppendColumns(part, cols); err != nil {
		return err
	}
	newRows := s.table.Partition(part).NumRows()
	for _, m := range s.maintainers {
		vals := cols[m.col] // appends carry one vector per schema column
		newIDs, retro := m.classify(part, vals, baseRow)
		s.patchesAdded.Add(int64(len(newIDs) + len(retro)))
		// Retroactive patches may hit other partitions; group them.
		perPart := map[int][]uint64{part: newIDs}
		for _, r := range retro {
			perPart[r.part] = append(perPart[r.part], r.row)
		}
		for p, ids := range perPart {
			rows := s.table.Partition(p).NumRows()
			if p == part {
				rows = newRows
			}
			if err := m.ix.UpdatePartition(p, ids, rows); err != nil {
				return err
			}
		}
	}
	return nil
}
