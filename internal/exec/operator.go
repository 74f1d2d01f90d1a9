// Package exec implements the vectorized Volcano-style operators of the
// engine: scans, selections, projections, hash aggregation, sorting, hash and
// merge joins, unions — and the PatchSelect operator that applies PatchIndex
// information to a dataflow (Section VI-A of the paper).
//
// Operators exchange vector.Batch values via Next; a nil batch signals end of
// stream. Open must be called before the first Next, Close releases state.
package exec

import (
	"context"
	"fmt"
	"time"

	"patchindex/internal/obs"
	"patchindex/internal/vector"
)

// Operator is a pull-based vectorized operator.
//
// Batch ownership: a batch returned by Next is valid only until the next
// call to Next or Close on the same operator — operators reuse their output
// buffers. Consumers that need data across calls (pipeline breakers like
// sort, hash build, materialization) must copy.
//
// Cancellation: the context passed to Open is retained for the operator's
// lifetime. Every operator checks it once per batch in Next (and pipeline
// breakers observe it through their children while materializing), so a
// cancelled or deadline-exceeded context stops execution mid-stream with
// the context's error.
type Operator interface {
	// Types returns the output column types.
	Types() []vector.Type
	// Open prepares the operator for execution (build phase). The context
	// governs the whole execution: Open, every Next, and any worker
	// goroutines the operator starts.
	Open(ctx context.Context) error
	// Next returns the next batch, or nil at end of stream.
	Next() (*vector.Batch, error)
	// Close releases resources. It is safe to call after an error.
	Close() error
	// Name returns the operator name for EXPLAIN output.
	Name() string
	// Children returns the input operators, outermost first, so the
	// executed tree can be walked for EXPLAIN ANALYZE.
	Children() []Operator
	// Stats returns the operator's runtime statistics. The pointer is
	// stable across the operator's lifetime; contents are only meaningful
	// to read once execution has finished (after Close).
	Stats() *obs.OpStats
}

// ExtraStatser is implemented by operators that expose operator-specific
// counters (patch probes/hits, pruned rows, hash-build sizes, ...) beyond
// the generic OpStats. Only read after execution finishes.
type ExtraStatser interface {
	ExtraStats() []obs.KV
}

// WorkerStatser is implemented by parallel operators (Exchange, HashAgg)
// that run a worker pool: it exposes the per-worker share of the operator's
// merged OpStats, rendered as per-worker lines in EXPLAIN ANALYZE and as
// per-worker spans under the operator's span in traces. Only read after
// execution finishes (the operator joins its workers before then).
type WorkerStatser interface {
	WorkerStats() []obs.WorkerStats
}

// untimedKey is the context key of the WithoutTiming marker.
type untimedKey struct{}

// WithoutTiming returns ctx marked so that the operators opened under it
// never read the clock: OpStats.Nanos and WorkerStats.Nanos stay 0 while
// every row, batch, kernel and patch counter still counts. Worker pipelines
// inherit the marker through the context their parent opens them with. The
// engine marks every statement whose operator times nobody reads (neither
// EXPLAIN ANALYZE nor a detailed trace); an unmarked context keeps timing.
func WithoutTiming(ctx context.Context) context.Context {
	return context.WithValue(ctx, untimedKey{}, true)
}

// opStats is embedded by every operator to satisfy Stats() and to hold the
// execution context bound at Open.
type opStats struct {
	stats   obs.OpStats
	ctx     context.Context
	untimed bool // ctx carries the WithoutTiming marker
}

// Stats returns the operator's runtime statistics.
func (o *opStats) Stats() *obs.OpStats { return &o.stats }

// bindCtx records the execution context and whether it is timed; nil
// defaults to Background so operators opened outside a request (tests,
// tools) need no special casing.
func (o *opStats) bindCtx(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	o.ctx = ctx
	o.untimed = ctx.Value(untimedKey{}) != nil
}

// clock returns the current time in a timed statement and the zero time,
// which AddTime ignores, in an untimed one. With nextBatch it is the only
// place the executor reads the clock.
func (o *opStats) clock() time.Time {
	if o.untimed {
		return time.Time{}
	}
	return time.Now()
}

// openTimed runs the build phase of a pipeline breaker's Open and charges
// its time to the operator.
func (o *opStats) openTimed(open func() error) error {
	start := o.clock()
	err := open()
	o.stats.AddTime(start)
	return err
}

// nextBatch is the body every Next shares: it checks the bound context,
// runs next, charges its time and counts the batch it returns. It tests
// untimed once and reads the clock directly, not through clock and
// AddTime, to keep the timed path short.
func (o *opStats) nextBatch(next func() (*vector.Batch, error)) (*vector.Batch, error) {
	if err := o.ctxErr(); err != nil {
		return nil, err
	}
	var b *vector.Batch
	var err error
	if o.untimed {
		b, err = next()
	} else {
		start := time.Now()
		b, err = next()
		o.stats.Nanos += int64(time.Since(start))
	}
	if b != nil {
		o.stats.AddBatch(b.RowCount())
	}
	return b, err
}

// ctxErr reports the bound context's cancellation state; checked once per
// Next call by every operator.
func (o *opStats) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	return o.ctx.Err()
}

// Collect drains an operator into row-oriented values, managing Open/Close.
// It is the main helper for tests and result materialization.
func Collect(op Operator) ([][]vector.Value, error) {
	return CollectContext(context.Background(), op)
}

// CollectContext is Collect under a cancellable context.
func CollectContext(ctx context.Context, op Operator) ([][]vector.Value, error) {
	defer op.Close() // also after a failed or panicking Open
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	var rows [][]vector.Value
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
}

// Drain consumes an operator, counting rows without materializing them.
func Drain(op Operator) (int, error) {
	return DrainContext(context.Background(), op)
}

// DrainContext is Drain under a cancellable context.
func DrainContext(ctx context.Context, op Operator) (int, error) {
	defer op.Close() // also after a failed or panicking Open
	if err := op.Open(ctx); err != nil {
		return 0, err
	}
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			return n, err
		}
		if b == nil {
			return n, nil
		}
		n += b.Len()
	}
}

// materialize pulls every batch of op into a single column set. Used by
// pipeline breakers (sort, hash build).
func materialize(op Operator, types []vector.Type) ([]*vector.Vector, int, error) {
	cols := make([]*vector.Vector, len(types))
	for i, t := range types {
		cols[i] = vector.New(t, 0)
	}
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			return nil, 0, err
		}
		if b == nil {
			return cols, n, nil
		}
		bl := b.Len()
		for c := range cols {
			cols[c].AppendRange(b.Vecs[c], 0, bl)
		}
		n += bl
	}
}

// sliceEmitter re-batches materialized columns into BatchSize chunks.
type sliceEmitter struct {
	cols []*vector.Vector
	n    int
	pos  int
}

func (s *sliceEmitter) next() *vector.Batch {
	if s.pos >= s.n {
		return nil
	}
	end := s.pos + vector.BatchSize
	if end > s.n {
		end = s.n
	}
	out := &vector.Batch{Vecs: make([]*vector.Vector, len(s.cols))}
	for c, v := range s.cols {
		out.Vecs[c] = v.Slice(s.pos, end)
	}
	s.pos = end
	return out
}

func errOp(op Operator, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", op.Name(), err)
}
