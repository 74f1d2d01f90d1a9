package exec

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"patchindex/internal/obs"
	"patchindex/internal/vector"
)

// SortKey is one ordering column of a sort or merge operator.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort is a full-materialization sort operator. A single NULL-free
// Int64/Date key takes a stable LSD radix sort, whose cost follows the row
// count and the key span, not how sorted the input already is; tied rows
// keep their input order. Every other key shape takes the engine's quicksort
// (median-of-three pivoting, insertion-sort cutoff, heapsort guard), whose
// pivoting still favours nearly sorted input — the property the paper's
// Figure 5 discussion attributes to the internal QuickSort of Actian Vector.
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
	return s.openTimed(func() error { return s.open(ctx) })
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
	s.emit = &sliceEmitter{cols: sortColumns(cols, n, s.keys), n: n}
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
	flushRun := func() error {
		n := acc[0].Len()
		if n == 0 {
			return nil
		}
		idx, sortedKey := sortPermutation(acc, n, s.keys)
		sf, err := newSpillFile(s.spill.Dir)
		if err != nil {
			return err
		}
		// Gather one chunk at a time: the run never exists twice in memory.
		for lo := 0; lo < n; lo += vector.BatchSize {
			gatherSorted(chunk, acc, s.keys[0].Col, idx, sortedKey, lo, min(lo+vector.BatchSize, n))
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
			accBytes += b.Vecs[c].RowsByteSize(bl)
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
		s.emit = &sliceEmitter{cols: sortColumns(acc, n, s.keys), n: n}
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

// sortColumns returns the n rows of cols reordered under keys, as new
// vectors.
func sortColumns(cols []*vector.Vector, n int, keys []SortKey) []*vector.Vector {
	idx, sortedKey := sortPermutation(cols, n, keys)
	sorted := make([]*vector.Vector, len(cols))
	gatherSorted(sorted, cols, keys[0].Col, idx, sortedKey, 0, n)
	return sorted
}

// gatherSorted sets dst to the sorted rows lo..hi-1 of cols: rows idx[lo:hi]
// in that order. A nil dst vector is allocated, any other is reused. When
// the sort returned sortedKey, column keyCol wraps sortedKey[lo:hi] instead
// of gathering it.
func gatherSorted(dst, cols []*vector.Vector, keyCol int, idx []int, sortedKey []int64, lo, hi int) {
	for c, v := range cols {
		if sortedKey != nil && c == keyCol {
			dst[c] = vector.NewFromInt64(sortedKey[lo:hi])
			dst[c].Typ = v.Typ
			continue
		}
		if dst[c] == nil {
			dst[c] = vector.New(v.Typ, hi-lo)
		} else {
			dst[c].Reset()
		}
		dst[c].Gather(v, idx[lo:hi])
	}
}

// sortPermutation returns the row permutation ordering cols under keys. A
// single NULL-free Int64/Date key radix-sorts (key, row) pairs, which keeps
// tied rows in input order, and also returns the key values in sorted order.
// Every other key shape quicksorts row indices through compareRows and
// returns a nil key slice.
func sortPermutation(cols []*vector.Vector, n int, keys []SortKey) ([]int, []int64) {
	if key := cols[keys[0].Col]; len(keys) == 1 &&
		(key.Typ == vector.Int64 || key.Typ == vector.Date) && !key.HasNulls() {
		var flip int64 // ^key orders descending keys ascending
		if keys[0].Desc {
			flip = ^0
		}
		vals := key.I64[:n]
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, x := range vals {
			x ^= flip
			lo, hi = min(lo, x), max(hi, x)
		}
		// Subtracting the smallest key makes every key an unsigned offset
		// whose order is the sort order, however far apart the extremes are.
		kr := make([]keyRow, n)
		for i, x := range vals {
			kr[i] = keyRow{key: uint64(x^flip) - uint64(lo), row: i}
		}
		kr = radixSortKeyRows(kr, uint64(hi)-uint64(lo))
		idx, sorted := make([]int, n), make([]int64, n)
		for i, e := range kr {
			idx[i] = e.row
			sorted[i] = int64(e.key+uint64(lo)) ^ flip
		}
		return idx, sorted
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	quicksort(idx, func(a, b int) bool { return compareRows(cols, keys, a, b) < 0 })
	return idx, nil
}

// Next emits the next sorted batch.
func (s *Sort) Next() (*vector.Batch, error) {
	return s.nextBatch(s.next)
}

func (s *Sort) next() (*vector.Batch, error) {
	if s.merge != nil {
		b, err := s.merge.next()
		if err != nil {
			return nil, errOp(s, err)
		}
		return b, nil
	}
	if s.emit == nil {
		return nil, errOp(s, fmt.Errorf("not opened"))
	}
	return s.emit.next(), nil
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

// keyRow is one row of a single-integer-key sort: its key, mapped so that
// unsigned order is the sort order, and its position.
type keyRow struct {
	key uint64
	row int
}

// radixCutoff is the size below which radixSortKeyRows insertion-sorts
// instead: a 256-bucket histogram per pass does not pay for a few rows.
const radixCutoff = 48

// radixSortKeyRows sorts kr stably by key with one 8-bit LSD pass per byte
// of span, the largest key, skipping a pass whose bytes all fall in one
// bucket. It ping-pongs between kr and one scratch buffer and returns the
// one holding the result.
func radixSortKeyRows(kr []keyRow, span uint64) []keyRow {
	n := len(kr)
	if n < radixCutoff {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && kr[j].key < kr[j-1].key; j-- {
				kr[j], kr[j-1] = kr[j-1], kr[j]
			}
		}
		return kr
	}
	passes := (bits.Len64(span) + 7) / 8
	var counts [8][256]int
	for _, e := range kr {
		k := e.key
		for p := 0; p < passes; p++ {
			counts[p][byte(k)]++
			k >>= 8
		}
	}
	var tmp []keyRow
	src := kr
	for p := 0; p < passes; p++ {
		c := &counts[p]
		if c[byte(src[0].key>>(8*p))] == n {
			continue // every key has this byte: the pass would copy src
		}
		if tmp == nil {
			tmp = make([]keyRow, n)
		}
		dst := tmp
		var off [256]int
		sum := 0
		for b, cnt := range c {
			off[b] = sum
			sum += cnt
		}
		shift := 8 * p
		for _, e := range src {
			b := byte(e.key >> shift)
			dst[off[b]] = e
			off[b]++
		}
		src, tmp = dst, src
	}
	return src
}
