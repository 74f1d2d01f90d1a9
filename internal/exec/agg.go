package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
// partials in child-index order before Next emits results. One input runs
// inline on the caller's goroutine (the serial plan); several run on a
// bounded worker pool, one morsel per input (the morsel-driven parallel
// plan). The child-order merge is what keeps parallel aggregation
// deterministic: each partial preserves its input's first-occurrence group
// order, so merging partial 0, then 1, ... reproduces exactly the group
// insertion order of one input over Union(child 0, child 1, ...). Partials
// of COUNT(DISTINCT) carry value sets, not resolved counts, so duplicates
// across inputs collapse correctly at merge time.
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
		newPartial: classifyFastAgg(groupCols, aggs, in),
	}, nil
}

// Name returns the operator name: HashAgg or Distinct over one input,
// ParallelAgg with pipeline count and worker bound over several.
func (h *HashAgg) Name() string {
	if len(h.children) > 1 {
		return fmt.Sprintf("ParallelAgg(%d, dop=%d)", len(h.children), effectiveDegree(h.degree, len(h.children)))
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
	start := time.Now()
	err := h.open(h.ctx) // bindCtx normalized nil to Background
	h.stats.AddTime(start)
	h.built = int64(h.groups)
	return err
}

func (h *HashAgg) open(ctx context.Context) error {
	h.result, h.groups, h.outPos, h.opened = nil, 0, 0, true
	var partials []aggPartial
	if len(h.children) == 1 {
		if err := h.children[0].Open(ctx); err != nil {
			return err
		}
		p, err := h.drain(h.children[0], nil)
		if err != nil {
			return errOp(h, err)
		}
		partials = []aggPartial{p}
	} else {
		var err error
		if partials, err = h.runWorkers(ctx); err != nil {
			return err
		}
	}
	h.result = partials[0]
	for _, p := range partials[1:] {
		h.result.merge(p)
	}
	h.groups = h.result.finish()
	return nil
}

// runWorkers aggregates each input into a partial on a bounded worker pool.
func (h *HashAgg) runWorkers(ctx context.Context) ([]aggPartial, error) {
	n := effectiveDegree(h.degree, len(h.children))
	h.workers = make([]obs.WorkerStats, n)
	partials := make([]aggPartial, len(h.children))
	errs := make([]error, len(h.children))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(ws *obs.WorkerStats) {
			defer wg.Done()
			for {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(h.children) {
					return
				}
				start := time.Now()
				ws.Morsels++
				err := h.children[i].Open(ctx)
				if err == nil {
					partials[i], err = h.drain(h.children[i], ws)
				}
				ws.AddTime(start)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}(&h.workers[w])
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, errOp(h, e)
		}
	}
	return partials, ctx.Err()
}

// drain aggregates one opened input into a fresh partial. ws, when non-nil,
// counts the batches and rows the input produced.
func (h *HashAgg) drain(child Operator, ws *obs.WorkerStats) (aggPartial, error) {
	p := h.newPartial()
	for {
		b, err := child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return p, nil
		}
		if ws != nil {
			ws.AddBatch(b.Len())
		}
		p.add(b)
	}
}

// Next emits result groups in merged first-occurrence order.
func (h *HashAgg) Next() (*vector.Batch, error) {
	if err := h.ctxErr(); err != nil {
		return nil, err
	}
	start := time.Now()
	b, err := h.next()
	h.stats.AddTime(start)
	if b != nil {
		h.stats.AddBatch(b.Len())
	}
	return b, err
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

// encodeValue appends a canonical, type-tagged binary encoding of value i of
// v to buf. Encodings are injective per type except that -0.0 and +0.0,
// equal under =, share one, so they are usable as hash map keys for
// grouping, distinct counting and joins. NULL encodes as a dedicated tag.
func encodeValue(buf []byte, v *vector.Vector, i int) []byte {
	if v.IsNull(i) {
		return append(buf, 0)
	}
	switch v.Typ {
	case vector.Int64, vector.Date:
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I64[i]))
	case vector.Float64:
		buf = append(buf, 2)
		buf = binary.LittleEndian.AppendUint64(buf, vector.Float64KeyBits(v.F64[i]))
	case vector.String:
		buf = append(buf, 3)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str[i])))
		buf = append(buf, v.Str[i]...)
	case vector.Bool:
		if v.B[i] {
			buf = append(buf, 4, 1)
		} else {
			buf = append(buf, 4, 0)
		}
	}
	return buf
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
