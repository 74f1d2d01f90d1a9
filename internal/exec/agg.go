package exec

import (
	"context"
	"fmt"

	"patchindex/internal/morsel"
	"patchindex/internal/obs"
	"patchindex/internal/vector"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	// CountStar counts rows.
	CountStar AggFunc = iota
	// Count counts non-NULL values of a column.
	Count
	// CountDistinct counts distinct non-NULL values of a column.
	CountDistinct
	// Sum sums a numeric column (NULLs ignored).
	Sum
	// Min returns the minimum non-NULL value.
	Min
	// Max returns the maximum non-NULL value.
	Max
)

// String names the function.
func (f AggFunc) String() string {
	return [...]string{"COUNT(*)", "COUNT", "COUNT(DISTINCT)", "SUM", "MIN", "MAX"}[f]
}

// AggSpec is one aggregate computation over input column Col (ignored for
// CountStar).
type AggSpec struct {
	Func AggFunc
	Col  int
}

// ResultType returns the output type of the aggregate given its input type.
func (a AggSpec) ResultType(input []vector.Type) vector.Type {
	switch a.Func {
	case CountStar, Count, CountDistinct:
		return vector.Int64
	case Sum:
		if input[a.Col] == vector.Float64 {
			return vector.Float64
		}
		return vector.Int64
	case Min, Max:
		return input[a.Col]
	default:
		panic("exec: unknown aggregate")
	}
}

// HashAgg is a hash-based grouping aggregation over one or more input
// pipelines. With no aggregate specs it degenerates to DISTINCT over the
// group columns — the "very expensive hash-based aggregation" the
// distinct-rewrite of the paper avoids for the non-patch part of the data.
//
// Each input is aggregated into its own partial, and Open merges the
// partials in child-index order before Next emits results. The inputs are
// the morsels of one morsel.ForEach: one input runs inline on the caller's
// goroutine (the serial plan); several run on a bounded worker pool (the
// morsel-driven parallel plan). The child-order merge is what keeps
// parallel aggregation deterministic: each partial preserves its input's
// first-occurrence group order, so merging partial 0, then 1, ...
// reproduces exactly the group insertion order of one input over
// Union(child 0, child 1, ...). Partials of COUNT(DISTINCT) carry their
// distinct values, not resolved counts, so duplicates across inputs
// collapse correctly at merge time.
type HashAgg struct {
	opStats
	children   []Operator
	degree     int
	aggs       []AggSpec
	types      []vector.Type
	newPartial func() aggPartial

	result  aggPartial
	groups  int
	outPos  int
	opened  bool
	workers []obs.WorkerStats
	// built captures the group count at the end of Open; result is dropped
	// on Close but EXPLAIN ANALYZE reads stats after Close.
	built int64
}

// NewHashAgg creates a hash aggregation over one input. groupCols may be
// empty (global aggregation, emits exactly one row), aggs may be empty (pure
// DISTINCT).
func NewHashAgg(child Operator, groupCols []int, aggs []AggSpec) (*HashAgg, error) {
	return NewParallelAgg(1, groupCols, aggs, child)
}

// NewParallelAgg creates a hash aggregation over schema-compatible
// per-partition pipelines with at most degree workers (degree <= 0 means
// runtime.GOMAXPROCS(0)). With one child it is NewHashAgg.
func NewParallelAgg(degree int, groupCols []int, aggs []AggSpec, children ...Operator) (*HashAgg, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("exec: parallel aggregation needs at least one child")
	}
	in := children[0].Types()
	for i, c := range children[1:] {
		if err := typesEqual(in, c.Types()); err != nil {
			return nil, fmt.Errorf("exec: parallel aggregation child %d: %w", i+1, err)
		}
	}
	types, err := aggOutputTypes(groupCols, aggs, in)
	if err != nil {
		return nil, err
	}
	return &HashAgg{
		children: children, degree: degree, aggs: aggs, types: types,
		newPartial: func() aggPartial { return newGroupAgg(groupCols, aggs, in) },
	}, nil
}

// Name returns the operator name: HashAgg or Distinct over one input,
// ParallelAgg with pipeline count and worker bound over several.
func (h *HashAgg) Name() string {
	if len(h.children) > 1 {
		return fmt.Sprintf("ParallelAgg(%d, dop=%d)", len(h.children), morsel.Workers(h.degree, len(h.children)))
	}
	if len(h.aggs) == 0 {
		return "Distinct"
	}
	return "HashAgg"
}

// Types returns group column types followed by aggregate result types.
func (h *HashAgg) Types() []vector.Type { return h.types }

// Children returns the input pipelines. Their stats must only be read after
// Open has returned (which joins the workers).
func (h *HashAgg) Children() []Operator { return h.children }

// WorkerStats returns the per-worker statistics of a parallel aggregation
// (rows here count input rows consumed, since the workers' product is
// aggregate state, not batches); nil over one input. Only meaningful after
// Open has returned.
func (h *HashAgg) WorkerStats() []obs.WorkerStats { return h.workers }

// ExtraStats reports the number of groups built and, over several inputs,
// the worker pool size and morsels run.
func (h *HashAgg) ExtraStats() []obs.KV {
	kv := []obs.KV{{Key: "groups", Value: h.built}}
	if len(h.children) == 1 {
		return kv
	}
	var morsels int64
	for i := range h.workers {
		morsels += h.workers[i].Morsels
	}
	return append(kv,
		obs.KV{Key: "workers", Value: int64(len(h.workers))},
		obs.KV{Key: "morsels", Value: morsels})
}

// Open aggregates every input and merges the partials (pipeline breaker). A
// cancelled context aborts the build through the inputs' per-batch checks; a
// failed pipeline stops the pool claiming further morsels.
func (h *HashAgg) Open(ctx context.Context) error {
	h.bindCtx(ctx)
	err := h.openTimed(func() error { return h.open(h.ctx) }) // bindCtx normalized nil to Background
	h.built = int64(h.groups)
	return err
}

func (h *HashAgg) open(ctx context.Context) error {
	h.result, h.groups, h.outPos, h.opened = nil, 0, 0, true
	if len(h.children) > 1 {
		h.workers = make([]obs.WorkerStats, morsel.Workers(h.degree, len(h.children)))
	}
	partials := make([]aggPartial, len(h.children))
	err := morsel.ForEach(ctx, len(h.children), len(h.workers), func(w, i int) error {
		ws := &obs.WorkerStats{} // a serial aggregation reports no workers
		if h.workers != nil {
			ws = &h.workers[w]
		}
		defer ws.AddTime(h.clock())
		ws.Morsels++
		child, p := h.children[i], h.newPartial()
		if err := child.Open(ctx); err != nil {
			return err
		}
		for {
			b, err := child.Next()
			if err != nil || b == nil {
				partials[i] = p
				return err
			}
			ws.AddBatch(b.Len()) // input rows: a worker's product is state
			p.add(b)
		}
	})
	if err != nil {
		return errOp(h, err)
	}
	h.result = partials[0]
	for _, p := range partials[1:] {
		h.result.merge(p)
	}
	h.groups = h.result.finish()
	return nil
}

// Next emits result groups in merged first-occurrence order.
func (h *HashAgg) Next() (*vector.Batch, error) {
	return h.nextBatch(h.next)
}

func (h *HashAgg) next() (*vector.Batch, error) {
	if !h.opened {
		return nil, errOp(h, fmt.Errorf("not opened"))
	}
	if h.outPos >= h.groups {
		return nil, nil
	}
	end := h.outPos + vector.BatchSize
	if end > h.groups {
		end = h.groups
	}
	out := vector.NewBatch(h.types)
	h.result.emit(out, h.outPos, end)
	h.outPos = end
	return out, nil
}

// Close closes every input and drops the aggregation state. Workers were
// already joined by Open, so no goroutines outlive the operator.
func (h *HashAgg) Close() error {
	h.result = nil
	var first error
	for _, c := range h.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// aggOutputTypes validates group columns and aggregate specs against the
// input schema and returns the output column types.
func aggOutputTypes(groupCols []int, aggs []AggSpec, in []vector.Type) ([]vector.Type, error) {
	if len(groupCols) == 0 && len(aggs) == 0 {
		return nil, fmt.Errorf("exec: hash aggregation needs group columns or aggregates")
	}
	var types []vector.Type
	for _, c := range groupCols {
		if c < 0 || c >= len(in) {
			return nil, fmt.Errorf("exec: group column %d out of range", c)
		}
		types = append(types, in[c])
	}
	for _, a := range aggs {
		if a.Func != CountStar && (a.Col < 0 || a.Col >= len(in)) {
			return nil, fmt.Errorf("exec: aggregate column %d out of range", a.Col)
		}
		types = append(types, a.ResultType(in))
	}
	return types, nil
}
