package exec

import (
	"context"
	"fmt"
	"sort"

	"patchindex/internal/obs"
	"patchindex/internal/vector"
)

// Union concatenates its children (SQL UNION ALL semantics). It is the
// combiner of the distinct- and join-rewrites of Section VI-B.
type Union struct {
	opStats
	children []Operator
	types    []vector.Type
	cur      int
}

// NewUnion creates a sequential union of compatible children.
func NewUnion(children ...Operator) (*Union, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("exec: union needs at least one child")
	}
	types := children[0].Types()
	for i, c := range children[1:] {
		if err := typesEqual(types, c.Types()); err != nil {
			return nil, fmt.Errorf("exec: union child %d: %w", i+1, err)
		}
	}
	return &Union{children: children, types: types}, nil
}

func typesEqual(a, b []vector.Type) error {
	if len(a) != len(b) {
		return fmt.Errorf("column count mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("column %d type mismatch: %s vs %s", i, a[i], b[i])
		}
	}
	return nil
}

// Name returns the operator name.
func (u *Union) Name() string { return fmt.Sprintf("Union(%d)", len(u.children)) }

// Types returns the common child types.
func (u *Union) Types() []vector.Type { return u.types }

// Open opens all children. Its time counts toward the union's OpStats, so
// a child that works in Open (a Sort) never reports more than its parent.
func (u *Union) Open(ctx context.Context) error {
	u.bindCtx(ctx)
	u.cur = 0
	return u.openTimed(func() error {
		for _, c := range u.children {
			if err := c.Open(ctx); err != nil {
				return err
			}
		}
		return nil
	})
}

// Children returns the unioned inputs.
func (u *Union) Children() []Operator { return u.children }

// Next drains children in order.
func (u *Union) Next() (*vector.Batch, error) {
	return u.nextBatch(u.next)
}

func (u *Union) next() (*vector.Batch, error) {
	for u.cur < len(u.children) {
		b, err := u.children[u.cur].Next()
		if err != nil {
			return nil, errOp(u, err)
		}
		if b != nil {
			// Row ids are no longer table positions after a union.
			b.Contiguous = false
			return b, nil
		}
		u.cur++
	}
	return nil, nil
}

// Close closes all children.
func (u *Union) Close() error {
	var first error
	for _, c := range u.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MergeUnion merges children that are each sorted on the given keys into one
// sorted stream. The sort-rewrite of the paper replaces the plain Union with
// a MergeUnion so the combined dataflow stays sorted (Section VI-B2). The
// merge itself is the shared kernel in merger.
type MergeUnion struct {
	opStats
	children []Operator
	keys     []SortKey
	types    []vector.Type
	merge    *merger
}

// NewMergeUnion creates a k-way merge of sorted children.
func NewMergeUnion(keys []SortKey, children ...Operator) (*MergeUnion, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("exec: merge union needs at least one child")
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("exec: merge union needs sort keys")
	}
	types := children[0].Types()
	for i, c := range children[1:] {
		if err := typesEqual(types, c.Types()); err != nil {
			return nil, fmt.Errorf("exec: merge union child %d: %w", i+1, err)
		}
	}
	for _, k := range keys {
		if k.Col < 0 || k.Col >= len(types) {
			return nil, fmt.Errorf("exec: merge union key column %d out of range", k.Col)
		}
	}
	return &MergeUnion{children: children, keys: keys, types: types}, nil
}

// Name returns the operator name.
func (m *MergeUnion) Name() string { return fmt.Sprintf("MergeUnion(%d)", len(m.children)) }

// Types returns the common child types.
func (m *MergeUnion) Types() []vector.Type { return m.types }

// Children returns the merged inputs.
func (m *MergeUnion) Children() []Operator { return m.children }

// ExtraStats reports the runs the merge emitted, copied or passed through
// (merge_runs), and how many of them a single compare of the last row in
// reach decided (whole_batch_runs): on range-disjoint children nearly every
// run is a whole batch, passed on uncopied, which is why the merge costs
// little per row there.
func (m *MergeUnion) ExtraStats() []obs.KV {
	var runs, whole int64
	if m.merge != nil {
		runs, whole = m.merge.runs, m.merge.wholeRuns
	}
	return []obs.KV{{Key: "merge_runs", Value: runs}, {Key: "whole_batch_runs", Value: whole}}
}

// Open opens all children, primes the cursors and builds the heap.
func (m *MergeUnion) Open(ctx context.Context) error {
	m.bindCtx(ctx)
	return m.openTimed(func() error { return m.open(ctx) })
}

func (m *MergeUnion) open(ctx context.Context) error {
	pulls := make([]func() ([]*vector.Vector, error), len(m.children))
	for i, c := range m.children {
		if err := c.Open(ctx); err != nil {
			return err
		}
		pulls[i] = pullOperator(c)
	}
	mg, err := newMerger(m.keys, m.types, pulls)
	if err != nil {
		return errOp(m, err)
	}
	m.merge = mg
	return nil
}

// pullOperator adapts an operator to the merger's input: the columns of its
// next batch, or nil at end of stream.
func pullOperator(op Operator) func() ([]*vector.Vector, error) {
	return func() ([]*vector.Vector, error) {
		b, err := op.Next()
		if b == nil || err != nil {
			return nil, err
		}
		return b.Vecs, nil
	}
}

// Next emits the next batch of globally smallest rows.
func (m *MergeUnion) Next() (*vector.Batch, error) {
	return m.nextBatch(m.next)
}

func (m *MergeUnion) next() (*vector.Batch, error) {
	if m.merge == nil {
		return nil, errOp(m, fmt.Errorf("not opened"))
	}
	b, err := m.merge.next()
	if err != nil {
		return nil, errOp(m, err)
	}
	return b, nil
}

// Close closes all children.
func (m *MergeUnion) Close() error {
	var first error
	for _, c := range m.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// merger is the k-way merge kernel behind MergeUnion and the Sort spill's
// runMerger. A binary min-heap of inputs picks the input with the smallest
// current row; every row of it that sorts no later than the runner-up's
// current row then forms one *run*. Restoring the heap after a run costs
// O(log k) compares: one compare and at most one swap for two live inputs.
//
// The run end is found without a row-by-row walk: the last row in reach is
// tested first, which moves a whole batch in one compare when the inputs
// cover disjoint key ranges (e.g. partitions of a range-clustered table).
// Otherwise, for a single Int64/Date key whose batches both have no NULL
// (checked once per batch), an exponential search followed by a binary
// search reads the I64 values directly; every other shape runs the same
// search through compareRowsAcross. Both rely on each input being sorted.
//
// A run is copied with one AppendRange per column, except when it is an
// input's entire current batch and the output is still empty: then the
// input's vectors go out as they are, and the input is refilled only at the
// start of the next call, so they stay valid as long as Operator's batch
// ownership contract requires.
type merger struct {
	keys   []SortKey
	intKey bool  // single Int64/Date key
	flip   int64 // ^0 for a descending key: x^flip < y^flip orders like the key
	inputs []*mergeInput
	heap   []int // indices into inputs, min-heap by current row
	out    *vector.Batch
	pass   *vector.Batch // wraps a passed-through input batch
	passed *mergeInput   // the input whose batch pass holds, refilled next call

	runs      int64 // runs emitted
	wholeRuns int64 // runs decided by the single last-row compare
}

// mergeInput is one sorted input's read position.
type mergeInput struct {
	pull func() ([]*vector.Vector, error) // next batch's columns, nil at end
	cols []*vector.Vector
	key  []int64 // typed key values, nil when this batch takes the generic compare
	pos  int
	n    int
	eof  bool
}

// newMerger primes every input and builds the heap.
func newMerger(keys []SortKey, types []vector.Type, pulls []func() ([]*vector.Vector, error)) (*merger, error) {
	m := &merger{
		keys: keys,
		out:  vector.NewBatch(types),
		pass: &vector.Batch{Vecs: make([]*vector.Vector, len(types))},
	}
	if t := types[keys[0].Col]; len(keys) == 1 && (t == vector.Int64 || t == vector.Date) {
		m.intKey = true
		if keys[0].Desc {
			m.flip = ^0
		}
	}
	for i, p := range pulls {
		in := &mergeInput{pull: p}
		if err := m.fill(in); err != nil {
			return nil, err
		}
		m.inputs = append(m.inputs, in)
		if !in.eof {
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

// fill pulls batches until the input has an unread row or is exhausted.
func (m *merger) fill(in *mergeInput) error {
	for !in.eof && in.pos >= in.n {
		cols, err := in.pull()
		if err != nil {
			return err
		}
		if cols == nil {
			in.eof, in.cols, in.key = true, nil, nil
			return nil
		}
		in.cols, in.pos, in.n, in.key = cols, 0, cols[0].Len(), nil
		if kv := cols[m.keys[0].Col]; m.intKey && !kv.HasNulls() {
			in.key = kv.I64
		}
	}
	return nil
}

// less reports whether input a's current row sorts before input b's.
func (m *merger) less(a, b int) bool {
	x, y := m.inputs[a], m.inputs[b]
	if x.key != nil && y.key != nil {
		return x.key[x.pos]^m.flip < y.key[y.pos]^m.flip
	}
	return compareRowsAcross(x.cols, x.pos, y.cols, y.pos, m.keys) < 0
}

// runEnd returns the end of best's run in [best.pos, limit): the first row
// after best.pos that sorts after second's current row, or limit. best's
// current row is known not to.
func (m *merger) runEnd(best, second *mergeInput, limit int) int {
	hi := limit - 1
	if hi == best.pos {
		return limit
	}
	if best.key != nil && second.key != nil {
		return m.runEndInt(best.key[:limit], best.pos, second.key[second.pos]^m.flip)
	}
	after := func(r int) bool {
		return compareRowsAcross(best.cols, r, second.cols, second.pos, m.keys) > 0
	}
	if !after(hi) {
		m.wholeRuns++
		return limit
	}
	// Invariant: row lo does not sort after second, row hi does. Gallop
	// from lo, then bisect the rows between lo and hi for the first that does.
	lo := best.pos
	for step := 1; lo+step < hi; step <<= 1 {
		if after(lo + step) {
			hi = lo + step
			break
		}
		lo += step
	}
	lo++
	return lo + sort.Search(hi-lo, func(i int) bool { return after(lo + i) })
}

// runEndInt is runEnd over typed keys: the first index past lo whose key
// sorts after pivot (already flipped), or len(keys). keys[lo] does not.
func (m *merger) runEndInt(keys []int64, lo int, pivot int64) int {
	flip := m.flip
	hi := len(keys) - 1
	if keys[hi]^flip <= pivot {
		m.wholeRuns++
		return len(keys)
	}
	// Invariant: keys[lo] does not sort after pivot, keys[hi] does.
	for step := 1; lo+step < hi; step <<= 1 {
		if keys[lo+step]^flip > pivot {
			hi = lo + step
			break
		}
		lo += step
	}
	// Bisect without a branch on the compare, which is a coin flip to the
	// predictor: n halves, lo moves up by half when keys[lo+half] does not
	// sort after pivot, and the answer stays in (lo, lo+n].
	for n := hi - lo; n > 1; n -= n / 2 {
		b := 0
		if keys[lo+n/2]^flip <= pivot {
			b = 1 // compiled to SETcc, not a jump
		}
		lo += n / 2 * b
	}
	return lo + 1
}

func (m *merger) siftDown(i int) {
	n := len(m.heap)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if child+1 < n && m.less(m.heap[child+1], m.heap[child]) {
			child++
		}
		if !m.less(m.heap[child], m.heap[i]) {
			return
		}
		m.heap[i], m.heap[child] = m.heap[child], m.heap[i]
		i = child
	}
}

// advance refills the heap's top input after a run, retires it at end of
// stream, and restores the heap.
func (m *merger) advance(top *mergeInput) error {
	if err := m.fill(top); err != nil {
		return err
	}
	if top.eof {
		m.heap[0] = m.heap[len(m.heap)-1]
		m.heap = m.heap[:len(m.heap)-1]
	}
	m.siftDown(0)
	return nil
}

// next emits the next batch of globally smallest rows, or nil when every
// input is drained. The batch is valid until the following call.
func (m *merger) next() (*vector.Batch, error) {
	if in := m.passed; in != nil {
		m.passed = nil
		if err := m.advance(in); err != nil {
			return nil, err
		}
	}
	out := m.out
	out.Reset()
	filled := 0
	for filled < vector.BatchSize && len(m.heap) > 0 {
		best := m.inputs[m.heap[0]]
		limit := min(best.n, best.pos+vector.BatchSize-filled)
		// The second-smallest input bounds how far the best one may run.
		end := limit
		if len(m.heap) > 1 {
			second := m.heap[1]
			if len(m.heap) > 2 && m.less(m.heap[2], m.heap[1]) {
				second = m.heap[2]
			}
			end = m.runEnd(best, m.inputs[second], limit)
		}
		m.runs++
		if filled == 0 && best.pos == 0 && end == best.n {
			copy(m.pass.Vecs, best.cols)
			best.pos = end
			m.passed = best
			return m.pass, nil
		}
		for col, v := range out.Vecs {
			v.AppendRange(best.cols[col], best.pos, end)
		}
		filled += end - best.pos
		best.pos = end
		if err := m.advance(best); err != nil {
			return nil, err
		}
	}
	if filled == 0 {
		return nil, nil
	}
	return out, nil
}

// The parallel counterpart of Union is the morsel-driven Exchange operator
// in exchange.go: it runs its children on a bounded worker pool and
// interleaves their batches.
