package exec

import (
	"context"
	"errors"
	"fmt"

	"patchindex/internal/morsel"
	"patchindex/internal/obs"
	"patchindex/internal/vector"
)

// Exchange is the engine's morsel-driven intra-query parallelism operator
// (the exchange of Leis et al.'s morsel framework, mapped onto the
// partitioned layout of Section VI-A2). Its children are independent
// pipelines — typically one scan(→PatchSelect)(→Filter)(→Project) chain per
// table partition, or the exclude/use branches of a PatchIndex rewrite — and
// each child is one *morsel*: a worker claims it, drives it from Open to end
// of stream, and moves on to the next unclaimed child.
//
// The worker pool is morsel.ForEach, bounded by morsel.Workers (the
// configured degree capped at runtime.GOMAXPROCS(0) and at the child
// count), so a 24-partition scan on an 8-core box runs 8 workers that each
// process ~3 partitions, instead of 24 goroutines thrashing the scheduler.
// Row order across children is non-deterministic; order-sensitive plans
// keep their serial MergeUnion.
//
// Each worker records its own obs.WorkerStats (morsels driven, batches/rows
// produced, wall time). A failed or panicking morsel stops the pool claiming
// more, and its error reaches Next once the running morsels have finished.
// Workers are joined in Close, which establishes the happens-before edge
// that makes child OpStats and WorkerStats safe to read for EXPLAIN ANALYZE
// and trace rendering.
//
// Cancellation: every child checks the context once per batch in Next, and
// the hand-off channel send also watches the context, so a cancelled query
// stops all workers within one batch even when the consumer is gone.
type Exchange struct {
	opStats
	children []Operator
	degree   int
	types    []vector.Type

	ch      chan parallelItem
	done    chan struct{} // closed by Close to stop the workers; nil when not open
	workers []obs.WorkerStats
}

type parallelItem struct {
	batch *vector.Batch
	err   error
}

// cloneBatch deep-copies a batch (fresh vectors, no shared buffers).
func cloneBatch(b *vector.Batch) *vector.Batch {
	out := &vector.Batch{Vecs: make([]*vector.Vector, len(b.Vecs))}
	n := b.Len()
	for c, v := range b.Vecs {
		nv := vector.New(v.Typ, n)
		nv.AppendRange(v, 0, n)
		out.Vecs[c] = nv
	}
	return out
}

// NewExchange creates an exchange over schema-compatible children with at
// most degree workers (degree <= 0 means runtime.GOMAXPROCS(0)).
func NewExchange(degree int, children ...Operator) (*Exchange, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("exec: exchange needs at least one child")
	}
	types := children[0].Types()
	for i, c := range children[1:] {
		if err := typesEqual(types, c.Types()); err != nil {
			return nil, fmt.Errorf("exec: exchange child %d: %w", i+1, err)
		}
	}
	return &Exchange{children: children, degree: degree, types: types}, nil
}

// Name returns the operator name with morsel count and worker bound.
func (x *Exchange) Name() string {
	return fmt.Sprintf("Exchange(%d, dop=%d)", len(x.children), morsel.Workers(x.degree, len(x.children)))
}

// Types returns the common child types.
func (x *Exchange) Types() []vector.Type { return x.types }

// Children returns the morsel pipelines. Their stats must only be read after
// Close, which joins the workers.
func (x *Exchange) Children() []Operator { return x.children }

// WorkerStats returns the per-worker statistics. Only meaningful after Close.
func (x *Exchange) WorkerStats() []obs.WorkerStats { return x.workers }

// ExtraStats reports the worker pool size next to the generic stats.
func (x *Exchange) ExtraStats() []obs.KV {
	var morsels int64
	for i := range x.workers {
		morsels += x.workers[i].Morsels
	}
	return []obs.KV{
		{Key: "workers", Value: int64(len(x.workers))},
		{Key: "morsels", Value: morsels},
	}
}

// Open starts the bounded worker pool: one goroutine runs morsel.ForEach
// over the child pipelines, forwards its error and closes the hand-off
// channel. Opening is lazy, so a child whose worker never reaches it (error
// or cancellation upstream) is opened never rather than eagerly.
func (x *Exchange) Open(ctx context.Context) error {
	x.bindCtx(ctx)
	n := morsel.Workers(x.degree, len(x.children))
	x.ch = make(chan parallelItem, 2*n)
	x.done = make(chan struct{})
	x.workers = make([]obs.WorkerStats, n)
	go func() {
		if err := morsel.ForEach(x.ctx, len(x.children), n, x.drive); err != nil {
			x.send(parallelItem{err: err})
		}
		close(x.ch)
	}()
	return nil
}

// errClosed stops a worker whose batch could not be handed over: the
// exchange was closed or the query cancelled, so nobody reads the error.
var errClosed = errors.New("exchange closed")

// drive runs morsel i to completion on worker w, forwarding its batches.
func (x *Exchange) drive(w, i int) error {
	ws := &x.workers[w]
	defer ws.AddTime(x.clock())
	ws.Morsels++
	op := x.children[i]
	if err := op.Open(x.ctx); err != nil {
		return err
	}
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return err
		}
		// Batches are only valid until the producer's next Next() call, but
		// the channel buffers them — deep-copy before enqueueing.
		ws.AddBatch(b.Len())
		if !x.send(parallelItem{batch: cloneBatch(b)}) {
			return errClosed
		}
	}
}

// send hands one item to the consumer, giving up when the exchange is closed
// or the query is cancelled so no worker blocks forever.
func (x *Exchange) send(it parallelItem) bool {
	select {
	case x.ch <- it:
		return true
	case <-x.done:
		return false
	case <-x.ctx.Done():
		return false
	}
}

// Next returns the next batch from any worker. The recorded time includes
// waiting for producers, so it reflects the critical path, not CPU work.
func (x *Exchange) Next() (*vector.Batch, error) {
	return x.nextBatch(x.nextItem)
}

func (x *Exchange) nextItem() (*vector.Batch, error) {
	for it := range x.ch {
		if it.err != nil {
			return nil, errOp(x, it.err)
		}
		return it.batch, nil
	}
	return nil, nil
}

// Close stops the workers and joins them by draining the hand-off channel
// until ForEach has returned and closed it, so child and worker stats become
// safe to read; then it closes all children — including those never claimed.
func (x *Exchange) Close() error {
	if x.done != nil {
		close(x.done)
		for range x.ch {
		}
		x.done = nil
	}
	var first error
	for _, c := range x.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
