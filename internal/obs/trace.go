package obs

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
)

// Span is one timed phase of a traced statement: a parser/planner stage or
// one physical operator. Operator spans copy their duration straight from the
// operator's OpStats, so a trace and EXPLAIN ANALYZE of the same execution
// report identical timings.
type Span struct {
	// ID is the span's index within the trace.
	ID int `json:"id"`
	// Parent is the parent span's ID, -1 for a root span.
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNS is the span start as a nanosecond offset from the trace start.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Attrs carries span-specific counters (rows, batches, patch_hits, ...).
	Attrs []KV `json:"attrs,omitempty"`
}

// Trace is the completed profile of one statement: what the query-history
// ring stores and the /queries and /trace/<id> endpoints serve.
type Trace struct {
	ID  uint64 `json:"id"`
	SQL string `json:"sql"`
	// Fingerprint is the statement's workload fingerprint id (%016x of the
	// literal-stripped shape hash); 0 when fingerprinting was off.
	Fingerprint uint64    `json:"fingerprint,omitempty"`
	SessionID   uint64    `json:"session_id,omitempty"`
	Client      string    `json:"client,omitempty"`
	Start       time.Time `json:"start"`
	// Duration marshals as nanoseconds.
	Duration  time.Duration `json:"duration_ns"`
	Rows      int64         `json:"rows"`
	PatchHits int64         `json:"patch_hits"`
	Error     string        `json:"error,omitempty"`
	// Sampled reports whether a span tree was collected (unsampled history
	// entries carry only the summary fields).
	Sampled bool   `json:"sampled"`
	Spans   []Span `json:"spans,omitempty"`
}

// Tracer produces per-statement traces. The master switch and the sampling
// rate are atomics, so the disabled hot path costs one atomic load and no
// allocation. When enabled, every statement is recorded in the history ring
// and every Nth statement (SampleEvery) additionally collects a span tree;
// a statement can also force a span tree regardless of the switches (the
// wire protocol's per-statement trace flag).
type Tracer struct {
	enabled atomic.Bool
	sampleN atomic.Int64
	seq     atomic.Uint64 // sampling sequence
	ids     atomic.Uint64 // trace-id allocator
	ring    *Ring[Trace]
}

// DefaultTraceHistory is the ring capacity used when NewTracer gets n <= 0.
const DefaultTraceHistory = 128

// NewTracer creates a tracer keeping the last n completed traces (n <= 0
// uses DefaultTraceHistory). The tracer starts disabled.
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultTraceHistory
	}
	t := &Tracer{ring: NewRing[Trace](n)}
	t.sampleN.Store(1)
	return t
}

// SetEnabled flips the master switch.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports the master switch.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetSampleEvery makes every nth statement collect a span tree while the
// tracer is enabled (n < 1 is treated as 1 — every statement).
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.sampleN.Store(int64(n))
}

// Recent returns up to max completed traces, newest (highest id) first.
// max <= 0 returns everything retained.
func (t *Tracer) Recent(max int) []*Trace {
	if t == nil {
		return nil
	}
	out := t.ring.Snapshot()
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Get returns the completed trace with the given id, or nil when it has
// been evicted (or never existed).
func (t *Tracer) Get(id uint64) *Trace {
	if t == nil {
		return nil
	}
	for _, tr := range t.ring.Snapshot() {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// Start begins tracing one statement. It returns nil — at the cost of one
// atomic load — when the tracer is disabled and the statement does not force
// tracing; all ActiveTrace methods are no-ops on nil, so callers need no
// checks. force collects a span tree regardless of the sampling rate.
func (t *Tracer) Start(sql string, force bool) *ActiveTrace {
	if t == nil {
		return nil
	}
	enabled := t.enabled.Load()
	if !force && !enabled {
		return nil
	}
	detailed := force
	if enabled {
		n := t.sampleN.Load()
		if t.seq.Add(1)%uint64(n) == 0 {
			detailed = true
		}
	}
	return &ActiveTrace{
		tracer:   t,
		start:    time.Now(),
		detailed: detailed,
		trace: &Trace{
			ID:      t.ids.Add(1),
			SQL:     sql,
			Start:   time.Now(),
			Sampled: detailed,
		},
	}
}

// ActiveTrace is a trace being built. It is owned by the goroutine executing
// the statement and must not be shared; it becomes visible to readers only
// once Finish publishes the completed Trace to the ring. All methods are
// safe on a nil receiver.
type ActiveTrace struct {
	tracer   *Tracer
	start    time.Time
	detailed bool
	trace    *Trace
}

// ID returns the trace id (0 on nil).
func (a *ActiveTrace) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.trace.ID
}

// Detailed reports whether this trace collects spans.
func (a *ActiveTrace) Detailed() bool { return a != nil && a.detailed }

// SetSession annotates the trace with the server session that issued the
// statement and the client's remote address.
func (a *ActiveTrace) SetSession(id uint64, client string) {
	if a == nil {
		return
	}
	a.trace.SessionID = id
	a.trace.Client = client
}

// SetFingerprint annotates the trace with the statement's workload
// fingerprint id.
func (a *ActiveTrace) SetFingerprint(fp uint64) {
	if a == nil {
		return
	}
	a.trace.Fingerprint = fp
}

// AddPatchHits accumulates PatchIndex hit counts observed during execution.
func (a *ActiveTrace) AddPatchHits(n int64) {
	if a == nil {
		return
	}
	a.trace.PatchHits += n
}

// StartSpan opens a span under parent (-1 for a root span) starting now and
// returns its id; EndSpan closes it. Returns -1 when spans are not collected.
func (a *ActiveTrace) StartSpan(name string, parent int) int {
	if a == nil || !a.detailed {
		return -1
	}
	id := len(a.trace.Spans)
	a.trace.Spans = append(a.trace.Spans, Span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		StartNS: int64(time.Since(a.start)),
	})
	return id
}

// EndSpan closes a span opened by StartSpan. Invalid ids are ignored.
func (a *ActiveTrace) EndSpan(id int) {
	if a == nil || id < 0 || id >= len(a.trace.Spans) {
		return
	}
	sp := &a.trace.Spans[id]
	sp.DurNS = int64(time.Since(a.start)) - sp.StartNS
}

// AddSpan records a span with explicit timing (both relative to the trace
// start) — the operator-span path, which copies durations from OpStats.
// Returns the span id, or -1 when spans are not collected.
func (a *ActiveTrace) AddSpan(parent int, name string, startNS, durNS int64, attrs []KV) int {
	if a == nil || !a.detailed {
		return -1
	}
	id := len(a.trace.Spans)
	a.trace.Spans = append(a.trace.Spans, Span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		StartNS: startNS,
		DurNS:   durNS,
		Attrs:   attrs,
	})
	return id
}

// SpanStart returns the start offset of a recorded span (0 for invalid ids),
// so derived spans can be anchored under it.
func (a *ActiveTrace) SpanStart(id int) int64 {
	if a == nil || id < 0 || id >= len(a.trace.Spans) {
		return 0
	}
	return a.trace.Spans[id].StartNS
}

// Finish completes the trace — stamping duration, row count, and error —
// and publishes it to the tracer's history ring. It returns the completed
// Trace (nil on a nil receiver). Call exactly once.
func (a *ActiveTrace) Finish(rows int64, err error) *Trace {
	if a == nil {
		return nil
	}
	a.trace.Duration = time.Since(a.start)
	a.trace.Rows = rows
	if err != nil {
		a.trace.Error = err.Error()
	}
	a.tracer.ring.Add(a.trace)
	return a.trace
}

// traceKey is the context key carrying the active trace.
type traceKey struct{}

// ContextWithTrace attaches an active trace to a context; the engine's
// execution phases and every exec.Operator see it via TraceFromContext.
func ContextWithTrace(ctx context.Context, a *ActiveTrace) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, a)
}

// TraceFromContext returns the active trace attached to ctx, or nil.
func TraceFromContext(ctx context.Context) *ActiveTrace {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(traceKey{}).(*ActiveTrace)
	return a
}
