package exec

import (
	"context"
	"fmt"
	"time"

	"patchindex/internal/obs"
	"patchindex/internal/vector"
)

// SortKey is one ordering column of a sort or merge operator.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort is a full-materialization sort operator using the engine's own
// quicksort (median-of-three pivoting with an insertion-sort cutoff). The
// pivoting strategy makes nearly sorted inputs sort measurably faster than
// random inputs — the property the paper's Figure 5 discussion attributes to
// the internal QuickSort of Actian Vector.
type Sort struct {
	opStats
	child Operator
	keys  []SortKey
	spill SpillConfig

	emit         *sliceEmitter
	merge        *runMerger
	sortedRows   int64
	spilledRuns  int64
	spilledBytes int64
}

// NewSort creates a sort operator over the given keys.
func NewSort(child Operator, keys []SortKey) (*Sort, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("exec: sort needs at least one key")
	}
	in := child.Types()
	for _, k := range keys {
		if k.Col < 0 || k.Col >= len(in) {
			return nil, fmt.Errorf("exec: sort key column %d out of range", k.Col)
		}
	}
	return &Sort{child: child, keys: keys}, nil
}

// SetSpill bounds the sort's in-memory working set: past cfg.Limit bytes the
// materialized rows sort into runs spilled to cfg.Dir, k-way merged on emit.
func (s *Sort) SetSpill(cfg SpillConfig) { s.spill = cfg }

// Name returns the operator name.
func (s *Sort) Name() string { return "Sort" }

// Types returns the child types.
func (s *Sort) Types() []vector.Type { return s.child.Types() }

// Children returns the single input.
func (s *Sort) Children() []Operator { return []Operator{s.child} }

// ExtraStats reports the number of rows materialized and sorted, plus spill
// activity when the external merge engaged.
func (s *Sort) ExtraStats() []obs.KV {
	kv := []obs.KV{{Key: "sorted_rows", Value: s.sortedRows}}
	if s.spilledRuns > 0 {
		kv = append(kv,
			obs.KV{Key: "spilled_runs", Value: s.spilledRuns},
			obs.KV{Key: "spilled_bytes", Value: s.spilledBytes})
	}
	return kv
}

// Open materializes and sorts the entire input (pipeline breaker). A
// cancelled context aborts the materialization through the child's Next.
func (s *Sort) Open(ctx context.Context) error {
	s.bindCtx(ctx)
	start := time.Now()
	err := s.open(ctx)
	s.stats.AddTime(start)
	return err
}

func (s *Sort) open(ctx context.Context) error {
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	if s.spill.enabled() {
		return s.openSpilling(ctx)
	}
	cols, n, err := materialize(s.child, s.child.Types())
	if err != nil {
		return errOp(s, err)
	}
	idx := sortPermutation(cols, n, s.keys)
	// Apply the permutation column-wise.
	sorted := make([]*vector.Vector, len(cols))
	for c, v := range cols {
		nv := vector.New(v.Typ, n)
		nv.Gather(v, idx)
		sorted[c] = nv
	}
	s.emit = &sliceEmitter{cols: sorted, n: n}
	s.sortedRows = int64(n)
	return nil
}

// openSpilling materializes the input in runs of at most spill.Limit bytes.
// If everything fits in one run the sort degenerates to the in-memory path;
// otherwise each run sorts independently, spills, and emit k-way merges.
func (s *Sort) openSpilling(ctx context.Context) error {
	types := s.child.Types()
	var runs []*spillRun
	fail := func(err error) error {
		for _, r := range runs {
			r.close()
		}
		return errOp(s, err)
	}
	newAcc := func() []*vector.Vector {
		acc := make([]*vector.Vector, len(types))
		for i, t := range types {
			acc[i] = vector.New(t, vector.BatchSize)
		}
		return acc
	}
	acc := newAcc()
	var accBytes int64
	chunk := make([]*vector.Vector, len(types))
	for i, t := range types {
		chunk[i] = vector.New(t, vector.BatchSize)
	}
	flushRun := func() error {
		n := acc[0].Len()
		if n == 0 {
			return nil
		}
		idx := sortPermutation(acc, n, s.keys)
		sf, err := newSpillFile(s.spill.Dir)
		if err != nil {
			return err
		}
		for lo := 0; lo < n; lo += vector.BatchSize {
			hi := lo + vector.BatchSize
			if hi > n {
				hi = n
			}
			for c := range chunk {
				chunk[c].Reset()
				chunk[c].Gather(acc[c], idx[lo:hi])
			}
			if err := sf.writeCols(chunk); err != nil {
				sf.discard()
				return err
			}
		}
		run, err := sf.finish()
		if err != nil {
			sf.discard()
			return err
		}
		runs = append(runs, run)
		s.spilledRuns++
		s.spilledBytes += run.bytes
		acc, accBytes = newAcc(), 0
		return nil
	}
	for {
		b, err := s.child.Next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		bl := b.Len()
		for c := range acc {
			acc[c].AppendRange(b.Vecs[c], 0, bl)
			accBytes += b.Vecs[c].ByteSize() // upper bound; re-priced per run
		}
		s.sortedRows += int64(bl)
		if accBytes >= s.spill.Limit {
			if err := flushRun(); err != nil {
				return fail(err)
			}
		}
	}
	if len(runs) == 0 {
		// Never crossed the limit: plain in-memory sort of the accumulation.
		n := acc[0].Len()
		idx := sortPermutation(acc, n, s.keys)
		sorted := make([]*vector.Vector, len(acc))
		for c, v := range acc {
			nv := vector.New(v.Typ, n)
			nv.Gather(v, idx)
			sorted[c] = nv
		}
		s.emit = &sliceEmitter{cols: sorted, n: n}
		return nil
	}
	if err := flushRun(); err != nil {
		return fail(err)
	}
	m, err := newRunMerger(runs, s.keys, types)
	if err != nil {
		return fail(err)
	}
	s.merge = m
	return nil
}

// sortPermutation returns the row permutation ordering cols under keys. A
// single non-NULL Int64/Date key sorts (key, row) pairs with no comparator
// closure; every other key shape sorts row indices through compareRows. Both
// run the same quicksort and so return the same permutation.
func sortPermutation(cols []*vector.Vector, n int, keys []SortKey) []int {
	idx := make([]int, n)
	if key := cols[keys[0].Col]; len(keys) == 1 &&
		(key.Typ == vector.Int64 || key.Typ == vector.Date) && !key.HasNulls() {
		var flip int64 // ^key orders descending keys ascending
		if keys[0].Desc {
			flip = ^0
		}
		kr := make([]keyRow, n)
		for i := range kr {
			kr[i] = keyRow{key: key.I64[i] ^ flip, row: i}
		}
		quicksortKeyRows(kr)
		for i := range kr {
			idx[i] = kr[i].row
		}
		return idx
	}
	for i := range idx {
		idx[i] = i
	}
	quicksort(idx, func(a, b int) bool { return compareRows(cols, keys, a, b) < 0 })
	return idx
}

// Next emits the next sorted batch.
func (s *Sort) Next() (*vector.Batch, error) {
	if err := s.ctxErr(); err != nil {
		return nil, err
	}
	if s.emit == nil && s.merge == nil {
		return nil, errOp(s, fmt.Errorf("not opened"))
	}
	start := time.Now()
	var b *vector.Batch
	var err error
	if s.merge != nil {
		b, err = s.merge.next()
		if err != nil {
			return nil, errOp(s, err)
		}
	} else {
		b = s.emit.next()
	}
	s.stats.AddTime(start)
	if b != nil {
		s.stats.AddBatch(b.Len())
	}
	return b, nil
}

// Close closes the child and drops the sorted data (and any leftover runs).
func (s *Sort) Close() error {
	s.emit = nil
	if s.merge != nil {
		s.merge.close()
		s.merge = nil
	}
	return s.child.Close()
}

// compareRows compares rows a and b of cols under the sort keys. NULLs sort
// first in ascending order (vector.Compare semantics), last when descending.
func compareRows(cols []*vector.Vector, keys []SortKey, a, b int) int {
	for _, k := range keys {
		c := cols[k.Col].Compare(a, cols[k.Col], b)
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// compareRowsAcross compares row i of batch cols la with row j of lb.
func compareRowsAcross(la []*vector.Vector, i int, lb []*vector.Vector, j int, keys []SortKey) int {
	for _, k := range keys {
		c := la[k.Col].Compare(i, lb[k.Col], j)
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// quicksort sorts idx with the given strict-weak-ordering comparator using
// median-of-three pivot selection and an insertion-sort cutoff of 16.
func quicksort(idx []int, less func(a, b int) bool) {
	quicksortRange(idx, 0, len(idx), less, maxDepth(len(idx)))
}

// maxDepth bounds recursion; past it we fall back to heapsort, keeping the
// worst case at O(n log n) like the production sorts the paper's system uses.
func maxDepth(n int) int {
	d := 0
	for i := n; i > 0; i >>= 1 {
		d++
	}
	return d * 2
}

func quicksortRange(idx []int, lo, hi int, less func(a, b int) bool, depth int) {
	for hi-lo > 16 {
		if depth == 0 {
			heapsortRange(idx, lo, hi, less)
			return
		}
		depth--
		p := partition(idx, lo, hi, less)
		// Recurse into the smaller side to bound stack depth.
		if p-lo < hi-p-1 {
			quicksortRange(idx, lo, p, less, depth)
			lo = p + 1
		} else {
			quicksortRange(idx, p+1, hi, less, depth)
			hi = p
		}
	}
	insertionSortRange(idx, lo, hi, less)
}

// partition uses median-of-three of first, middle, last as the pivot.
func partition(idx []int, lo, hi int, less func(a, b int) bool) int {
	mid := lo + (hi-lo)/2
	last := hi - 1
	// Order lo, mid, last so that idx[mid] is the median.
	if less(idx[mid], idx[lo]) {
		idx[mid], idx[lo] = idx[lo], idx[mid]
	}
	if less(idx[last], idx[lo]) {
		idx[last], idx[lo] = idx[lo], idx[last]
	}
	if less(idx[last], idx[mid]) {
		idx[last], idx[mid] = idx[mid], idx[last]
	}
	// Move pivot to last-1 position and partition [lo+1, last-1].
	idx[mid], idx[last-1] = idx[last-1], idx[mid]
	pivot := idx[last-1]
	i := lo
	j := last - 1
	for {
		for i++; less(idx[i], pivot); i++ {
		}
		for j--; less(pivot, idx[j]); j-- {
		}
		if i >= j {
			break
		}
		idx[i], idx[j] = idx[j], idx[i]
	}
	idx[i], idx[last-1] = idx[last-1], idx[i]
	return i
}

func insertionSortRange(idx []int, lo, hi int, less func(a, b int) bool) {
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

func heapsortRange(idx []int, lo, hi int, less func(a, b int) bool) {
	n := hi - lo
	sift := func(root, n int) {
		for {
			child := 2*root + 1
			if child >= n {
				return
			}
			if child+1 < n && less(idx[lo+child], idx[lo+child+1]) {
				child++
			}
			if !less(idx[lo+root], idx[lo+child]) {
				return
			}
			idx[lo+root], idx[lo+child] = idx[lo+child], idx[lo+root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		sift(i, n)
	}
	for i := n - 1; i > 0; i-- {
		idx[lo], idx[lo+i] = idx[lo+i], idx[lo]
		sift(0, i)
	}
}

// keyRow is one row of a single-integer-key sort: its key and position.
type keyRow struct {
	key int64
	row int
}

// quicksortKeyRows is quicksort specialised to keyRow by ascending key: the
// same pivots, partitioning, insertion-sort cutoff and heapsort guard, with
// the key compare inlined, so it permutes rows exactly as quicksort does
// under the equivalent comparator.
func quicksortKeyRows(kr []keyRow) {
	quicksortKeyRowsRange(kr, 0, len(kr), maxDepth(len(kr)))
}

func quicksortKeyRowsRange(kr []keyRow, lo, hi, depth int) {
	for hi-lo > 16 {
		if depth == 0 {
			heapsortKeyRows(kr[lo:hi])
			return
		}
		depth--
		p := partitionKeyRows(kr, lo, hi)
		if p-lo < hi-p-1 {
			quicksortKeyRowsRange(kr, lo, p, depth)
			lo = p + 1
		} else {
			quicksortKeyRowsRange(kr, p+1, hi, depth)
			hi = p
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && kr[j].key < kr[j-1].key; j-- {
			kr[j], kr[j-1] = kr[j-1], kr[j]
		}
	}
}

func partitionKeyRows(kr []keyRow, lo, hi int) int {
	mid := lo + (hi-lo)/2
	last := hi - 1
	if kr[mid].key < kr[lo].key {
		kr[mid], kr[lo] = kr[lo], kr[mid]
	}
	if kr[last].key < kr[lo].key {
		kr[last], kr[lo] = kr[lo], kr[last]
	}
	if kr[last].key < kr[mid].key {
		kr[last], kr[mid] = kr[mid], kr[last]
	}
	kr[mid], kr[last-1] = kr[last-1], kr[mid]
	pivot := kr[last-1].key
	i := lo
	j := last - 1
	for {
		for i++; kr[i].key < pivot; i++ {
		}
		for j--; pivot < kr[j].key; j-- {
		}
		if i >= j {
			break
		}
		kr[i], kr[j] = kr[j], kr[i]
	}
	kr[i], kr[last-1] = kr[last-1], kr[i]
	return i
}

func heapsortKeyRows(kr []keyRow) {
	for i := len(kr)/2 - 1; i >= 0; i-- {
		siftKeyRows(kr, i, len(kr))
	}
	for i := len(kr) - 1; i > 0; i-- {
		kr[0], kr[i] = kr[i], kr[0]
		siftKeyRows(kr, 0, i)
	}
}

func siftKeyRows(kr []keyRow, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && kr[child].key < kr[child+1].key {
			child++
		}
		if !(kr[root].key < kr[child].key) {
			return
		}
		kr[root], kr[child] = kr[child], kr[root]
		root = child
	}
}
