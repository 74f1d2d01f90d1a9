package exec

import (
	"context"
	"fmt"
	"time"

	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

// The merge and sort code as it stood before the typed tail, kept as the
// oracle the differential tests compare against: MergeUnion found each run's
// end one row at a time through compareRowsAcross, and sortPermutation sorted
// row indices through a comparator closure.

// refMergeUnion is the row-by-row MergeUnion.
type refMergeUnion struct {
	opStats
	children []Operator
	keys     []SortKey
	types    []vector.Type

	cursors []*refUnionCursor
	heap    []int
	out     *vector.Batch
}

type refUnionCursor struct {
	op    Operator
	batch *vector.Batch
	pos   int
	eof   bool
}

func (c *refUnionCursor) fill() error {
	for !c.eof && (c.batch == nil || c.pos >= c.batch.Len()) {
		b, err := c.op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			c.eof = true
			return nil
		}
		if b.Len() == 0 {
			continue
		}
		c.batch, c.pos = b, 0
	}
	return nil
}

func newRefMergeUnion(keys []SortKey, children ...Operator) *refMergeUnion {
	return &refMergeUnion{children: children, keys: keys, types: children[0].Types()}
}

func (m *refMergeUnion) Name() string         { return fmt.Sprintf("RefMergeUnion(%d)", len(m.children)) }
func (m *refMergeUnion) Types() []vector.Type { return m.types }
func (m *refMergeUnion) Children() []Operator { return m.children }

func (m *refMergeUnion) Open(ctx context.Context) error {
	m.bindCtx(ctx)
	start := time.Now()
	defer m.stats.AddTime(start)
	m.cursors = m.cursors[:0]
	m.heap = m.heap[:0]
	for _, c := range m.children {
		if err := c.Open(ctx); err != nil {
			return err
		}
		m.cursors = append(m.cursors, &refUnionCursor{op: c})
	}
	for ci, c := range m.cursors {
		if err := c.fill(); err != nil {
			return errOp(m, err)
		}
		if !c.eof {
			m.heap = append(m.heap, ci)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	m.out = vector.NewBatch(m.types)
	return nil
}

func (m *refMergeUnion) cursorLess(a, b int) bool {
	ca, cb := m.cursors[a], m.cursors[b]
	return compareRowsAcross(ca.batch.Vecs, ca.pos, cb.batch.Vecs, cb.pos, m.keys) < 0
}

func (m *refMergeUnion) siftDown(i int) {
	n := len(m.heap)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if child+1 < n && m.cursorLess(m.heap[child+1], m.heap[child]) {
			child++
		}
		if !m.cursorLess(m.heap[child], m.heap[i]) {
			return
		}
		m.heap[i], m.heap[child] = m.heap[child], m.heap[i]
		i = child
	}
}

func (m *refMergeUnion) Next() (*vector.Batch, error) {
	out := m.out
	out.Reset()
	for out.Len() < vector.BatchSize && len(m.heap) > 0 {
		best := m.cursors[m.heap[0]]
		second := -1
		if len(m.heap) > 1 {
			second = m.heap[1]
			if len(m.heap) > 2 && m.cursorLess(m.heap[2], m.heap[1]) {
				second = m.heap[2]
			}
		}
		limit := best.batch.Len()
		if room := vector.BatchSize - out.Len(); best.pos+room < limit {
			limit = best.pos + room
		}
		end := best.pos + 1
		if second >= 0 {
			sc := m.cursors[second]
			for end < limit &&
				compareRowsAcross(best.batch.Vecs, end, sc.batch.Vecs, sc.pos, m.keys) <= 0 {
				end++
			}
		} else {
			end = limit
		}
		for col := range m.types {
			out.Vecs[col].AppendRange(best.batch.Vecs[col], best.pos, end)
		}
		best.pos = end
		if best.pos >= best.batch.Len() {
			if err := best.fill(); err != nil {
				return nil, errOp(m, err)
			}
		}
		if best.eof {
			m.heap[0] = m.heap[len(m.heap)-1]
			m.heap = m.heap[:len(m.heap)-1]
		}
		if len(m.heap) > 0 {
			m.siftDown(0)
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

func (m *refMergeUnion) Close() error {
	var first error
	for _, c := range m.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// refSortPermutation is the closure-based sortPermutation.
func refSortPermutation(cols []*vector.Vector, n int, keys []SortKey) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if key := cols[keys[0].Col]; len(keys) == 1 &&
		(key.Typ == vector.Int64 || key.Typ == vector.Date) && !key.HasNulls() {
		vals := key.I64
		if keys[0].Desc {
			quicksort(idx, func(a, b int) bool { return vals[a] > vals[b] })
		} else {
			quicksort(idx, func(a, b int) bool { return vals[a] < vals[b] })
		}
	} else {
		less := func(a, b int) bool { return compareRows(cols, keys, a, b) < 0 }
		quicksort(idx, less)
	}
	return idx
}

// refPatchSelect is PatchSelect's batch step as it stood before the
// per-batch patch offsets, kept as the oracle FuzzPatchSelect compares
// against: exclude mode asked the patch pointer about every row of a batch
// holding a patch and copied the runs between patches one AppendRange at a
// time; use mode advanced the pointer one patch at a time and gathered the
// patch rows run by run.
type refPatchSelect struct {
	mode   SelectMode
	it     *patch.Iter
	out    *vector.Batch
	keep   []int
	probes int64
	hits   int64
}

// runRefPatchSelect drains child through refPatchSelect, with PatchSelect's
// use-mode early exit, and returns the output rows and the probe and hit
// counts.
func runRefPatchSelect(child Operator, set patch.Set, mode SelectMode) ([][]vector.Value, int64, int64, error) {
	if err := child.Open(context.Background()); err != nil {
		return nil, 0, 0, err
	}
	defer child.Close()
	p := &refPatchSelect{mode: mode, it: set.Iter(0), out: vector.NewBatch(child.Types())}
	var rows [][]vector.Value
	for {
		if p.mode == UsePatches && !p.it.Valid() {
			return rows, p.probes, p.hits, nil
		}
		b, err := child.Next()
		if err != nil || b == nil {
			return rows, p.probes, p.hits, err
		}
		n, base := b.Len(), b.BaseRow
		p.probes += int64(n)
		p.it.Seek(base)
		if out := p.applyMerge(b, base, n); out != nil {
			for i := 0; i < out.Len(); i++ {
				rows = append(rows, out.Row(i))
			}
		}
	}
}

func (p *refPatchSelect) applyMerge(b *vector.Batch, base uint64, n int) *vector.Batch {
	switch p.mode {
	case ExcludePatches:
		if !p.it.Valid() || p.it.Row() >= base+uint64(n) {
			return b
		}
		p.out.Reset()
		runStart := 0
		for i := 0; i < n; i++ {
			row := base + uint64(i)
			if p.it.Valid() && p.it.Row() == row {
				appendRun(p.out, b, runStart, i)
				runStart = i + 1
				p.hits++
				p.it.Next()
			}
		}
		appendRun(p.out, b, runStart, n)
		return p.out
	case UsePatches:
		keep := p.keep[:0]
		for p.it.Valid() {
			row := p.it.Row()
			if row >= base+uint64(n) {
				break
			}
			keep = append(keep, int(row-base))
			p.it.Next()
		}
		p.hits += int64(len(keep))
		p.keep = keep
		if len(keep) == 0 {
			return nil
		}
		p.out.Reset()
		gatherInto(p.out, b, keep)
		return p.out
	}
	return nil
}
