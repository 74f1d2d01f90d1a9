package obs

import "time"

// OpStats holds the runtime statistics of one physical operator instance.
// Each operator is driven by a single goroutine, so the fields are plain
// integers — no atomics on the per-batch path. Readers (the EXPLAIN ANALYZE
// renderer) only look after execution finishes; parallel operators provide
// the necessary happens-before edge by joining their workers on Close.
type OpStats struct {
	// Batches and Rows count the operator's output (what Next returned).
	Batches int64
	Rows    int64
	// Nanos is cumulative wall time spent inside the operator's Open/Next,
	// inclusive of its children (Postgres EXPLAIN ANALYZE semantics). It
	// reads 0 in an untimed statement: the engine times operators only under
	// EXPLAIN ANALYZE and detailed traces (exec.WithoutTiming marks the rest).
	Nanos int64
	// EstRows is the cost model's cardinality estimate attached at plan
	// build time; 0 means unknown (e.g. an operator synthesized below the
	// granularity of the logical plan).
	EstRows int64
	// EstCost is the cost model's total cost for the subtree, in abstract
	// cost units; 0 means unknown.
	EstCost float64
	// KernelBatches counts input batches the operator evaluated through
	// compiled vectorized kernels rather than the interpreted expression
	// fallback. 0 on operators that never compile expressions.
	KernelBatches int64
	// PartitionsPruned is the number of table partitions skipped entirely by
	// zone-map pruning before any morsel was scheduled. The planner stamps it
	// onto the plan root at build time.
	PartitionsPruned int64
}

// AddBatch records one emitted batch of n rows.
func (s *OpStats) AddBatch(n int) {
	s.Batches++
	s.Rows += int64(n)
}

// AddTime accumulates the wall time elapsed since start. A zero start is
// an untimed step and adds nothing.
func (s *OpStats) AddTime(start time.Time) {
	if !start.IsZero() {
		s.Nanos += int64(time.Since(start))
	}
}

// Duration returns the accumulated wall time.
func (s *OpStats) Duration() time.Duration { return time.Duration(s.Nanos) }

// KV is one operator-specific counter (e.g. patch_hits=42) surfaced next to
// the generic stats in EXPLAIN ANALYZE output and as span attributes in
// query traces.
type KV struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// WorkerStats is the per-worker share of a parallel operator's work (one
// entry per worker goroutine of an Exchange or parallel aggregation). Each
// worker writes only its own entry while running; readers look only after
// the operator's Close has joined the workers, so plain integers suffice —
// the same discipline as OpStats.
type WorkerStats struct {
	// Morsels is the number of work units (partition pipelines) the worker
	// drove to completion.
	Morsels int64
	// Batches and Rows count what the worker produced into the exchange.
	Batches int64
	Rows    int64
	// Nanos is wall time the worker spent driving morsels, including time
	// blocked handing batches to the consumer (backpressure is part of the
	// critical path). It reads 0 in an untimed statement, like OpStats.Nanos.
	Nanos int64
}

// AddBatch records one produced batch of n rows.
func (w *WorkerStats) AddBatch(n int) {
	w.Batches++
	w.Rows += int64(n)
}

// AddTime accumulates the wall time elapsed since start; a zero start adds
// nothing.
func (w *WorkerStats) AddTime(start time.Time) {
	if !start.IsZero() {
		w.Nanos += int64(time.Since(start))
	}
}

// Duration returns the accumulated wall time.
func (w *WorkerStats) Duration() time.Duration { return time.Duration(w.Nanos) }
