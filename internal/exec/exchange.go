package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
// The worker pool is bounded by the configured degree (capped at
// runtime.GOMAXPROCS(0) and at the child count), so a 24-partition scan on
// an 8-core box runs 8 workers that each process ~3 partitions, instead of
// 24 goroutines thrashing the scheduler. Row order across children is
// non-deterministic; order-sensitive plans keep their serial MergeUnion.
//
// Each worker records its own obs.WorkerStats (morsels driven, batches/rows
// produced, wall time). Workers are joined in Close, which establishes the
// happens-before edge that makes child OpStats and WorkerStats safe to read
// for EXPLAIN ANALYZE and trace rendering.
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
	done    chan struct{}
	wg      sync.WaitGroup
	started bool
	next    atomic.Int64
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

// effectiveDegree clamps a requested degree to [1, GOMAXPROCS] and to the
// number of available morsels.
func effectiveDegree(degree, morsels int) int {
	if degree <= 0 {
		degree = runtime.GOMAXPROCS(0)
	}
	if max := runtime.GOMAXPROCS(0); degree > max {
		degree = max
	}
	if degree > morsels {
		degree = morsels
	}
	if degree < 1 {
		degree = 1
	}
	return degree
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
	return fmt.Sprintf("Exchange(%d, dop=%d)", len(x.children), effectiveDegree(x.degree, len(x.children)))
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

// Open starts the bounded worker pool. Workers claim child pipelines from a
// shared counter and drive each to completion; opening is lazy, so a child
// whose worker never reaches it (error or cancellation upstream) is opened
// never rather than eagerly.
func (x *Exchange) Open(ctx context.Context) error {
	x.bindCtx(ctx)
	n := effectiveDegree(x.degree, len(x.children))
	x.ch = make(chan parallelItem, 2*n)
	x.done = make(chan struct{})
	x.next.Store(0)
	x.workers = make([]obs.WorkerStats, n)
	x.started = true
	for w := 0; w < n; w++ {
		x.wg.Add(1)
		go x.worker(ctx, &x.workers[w])
	}
	go func() {
		x.wg.Wait()
		close(x.ch)
	}()
	return nil
}

// worker claims and drives morsels until none remain, an error occurs, or
// the query is cancelled.
func (x *Exchange) worker(ctx context.Context, ws *obs.WorkerStats) {
	defer x.wg.Done()
	for {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		i := int(x.next.Add(1) - 1)
		if i >= len(x.children) {
			return
		}
		if !x.drive(ctx, x.children[i], ws) {
			return
		}
	}
}

// drive runs one morsel pipeline to completion, forwarding its batches.
// It returns false when the worker should stop (error sent or cancelled).
func (x *Exchange) drive(ctx context.Context, op Operator, ws *obs.WorkerStats) bool {
	defer ws.AddTime(x.clock())
	ws.Morsels++
	if err := op.Open(ctx); err != nil {
		x.send(parallelItem{err: err})
		return false
	}
	for {
		b, err := op.Next()
		if err != nil {
			x.send(parallelItem{err: err})
			return false
		}
		if b == nil {
			return true
		}
		// Batches are only valid until the producer's next Next() call, but
		// the channel buffers them — deep-copy before enqueueing.
		ws.AddBatch(b.Len())
		if !x.send(parallelItem{batch: cloneBatch(b)}) {
			return false
		}
	}
}

// send hands one item to the consumer, giving up when the exchange is closed
// or the query is cancelled so no worker blocks forever.
func (x *Exchange) send(it parallelItem) bool {
	var cancel <-chan struct{}
	if x.ctx != nil {
		cancel = x.ctx.Done()
	}
	select {
	case x.ch <- it:
		return true
	case <-x.done:
		return false
	case <-cancel:
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

// Close stops the workers (joining them, so child and worker stats become
// safe to read) and closes all children — including those never claimed.
func (x *Exchange) Close() error {
	if x.started {
		close(x.done)
		x.wg.Wait()
		x.started = false
	}
	var first error
	for _, c := range x.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
