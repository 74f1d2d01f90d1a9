package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records a span around every call the benchmark makes into a
// layer (layers.go) and one child span per operator from the drained tree's
// OpStats. Spans are recorded here, in the benchmark's own files; spans
// inside the engine are a later issue. They stay in memory and are written
// out once, when the run ends.

// span is one timed call. Start and End are nanoseconds since the trace
// began; spans of one statement share Stmt; Parent is a span ID or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans written to the trace file (about 6 MB): a
// wire-point run makes several hundred thousand. Statements past the bound
// still count in every aggregate; only their individual spans are dropped.
const maxKeptSpans = 50_000

type tracer struct {
	t0     time.Time
	nextID int
	stmts  int
	kept   []span
	cur    []span // spans of the statement in flight; cur[0] is its root

	droppedStmts int
	// Per statement and span name: inclusive duration and self time, in ns.
	dur, self map[string][]float64
	// rootNs is the summed wall time of the statement roots that have child
	// spans; gapNs the part of it no child covers.
	rootNs, gapNs int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), dur: map[string][]float64{}, self: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginStmt opens a statement and its root span.
func (t *tracer) beginStmt(name string) int {
	t.cur = t.cur[:0]
	t.stmts++
	return t.begin(name, "", -1)
}

// begin opens a span that starts now.
func (t *tracer) begin(name, detail string, parent int) int {
	id := t.nextID
	t.nextID++
	t.cur = append(t.cur, span{ID: id, Parent: parent, Stmt: t.stmts, Name: name, Detail: detail, Start: t.now(), End: -1})
	return id
}

// end closes a span now; closing it again keeps the first reading.
func (t *tracer) end(id int) {
	if s := &t.cur[id-t.cur[0].ID]; s.End < 0 {
		s.End = t.now()
	}
}

// add records a span whose duration was measured elsewhere (an operator's
// OpStats), laid out from start.
func (t *tracer) add(name, detail string, parent int, start, durNs int64) int {
	id := t.nextID
	t.nextID++
	t.cur = append(t.cur, span{ID: id, Parent: parent, Stmt: t.stmts, Name: name, Detail: detail, Start: start, End: start + durNs})
	return id
}

func (t *tracer) spanStart(id int) int64 { return t.cur[id-t.cur[0].ID].Start }

// endStmt closes the root span, unless the caller already has (to keep its
// own bookkeeping out of it), and folds the statement into the aggregates:
// a span's self time is its duration minus the part of that interval its
// child spans cover.
func (t *tracer) endStmt(root int) {
	t.end(root)
	base := t.cur[0].ID
	children := make([][]int, len(t.cur))
	for i, s := range t.cur {
		if s.Parent >= 0 {
			children[s.Parent-base] = append(children[s.Parent-base], i)
		}
	}
	durBy, selfBy := map[string]float64{}, map[string]float64{}
	for i, s := range t.cur {
		d := s.End - s.Start
		self := d - t.covered(s, children[i])
		durBy[s.Name] += float64(d)
		selfBy[s.Name] += float64(self)
		// A root without children is a single timed call: nothing to cover.
		if i == 0 && len(children[0]) > 0 {
			t.rootNs += d
			t.gapNs += self
		}
	}
	for name, d := range durBy {
		t.dur[name] = append(t.dur[name], d)
		t.self[name] = append(t.self[name], selfBy[name])
	}
	if len(t.kept)+len(t.cur) <= maxKeptSpans {
		t.kept = append(t.kept, t.cur...)
	} else {
		t.droppedStmts++
	}
}

// covered is the length of the union of the children's intervals, clipped to
// the parent.
func (t *tracer) covered(parent span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return t.cur[kids[a]].Start < t.cur[kids[b]].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := t.cur[k].Start, t.cur[k].End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// coverage is the share of statement wall time that child spans account for.
func (t *tracer) coverage() float64 {
	if t.rootNs == 0 {
		return 1
	}
	return 1 - float64(t.gapNs)/float64(t.rootNs)
}

// medianDur and medianSelf are per-statement medians for one span name, in
// the given unit (ns per unit); 0 when the name never occurred.
func (t *tracer) medianDur(name string, unit float64) float64 {
	if len(t.dur[name]) == 0 {
		return 0
	}
	return median(t.dur[name]) / unit
}

func (t *tracer) medianSelf(name string, unit float64) float64 {
	if len(t.self[name]) == 0 {
		return 0
	}
	return median(t.self[name]) / unit
}

type traceFile struct {
	Workload          string  `json:"workload"`
	Seed              int64   `json:"seed"`
	Statements        int     `json:"statements"`
	StatementsDropped int     `json:"statements_dropped"`
	CoveragePct       float64 `json:"coverage_pct"`
	Spans             []span  `json:"spans"`
}

// write stores the kept spans as benchmark/out-style JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Statements: t.stmts, StatementsDropped: t.droppedStmts,
		CoveragePct: 100 * t.coverage(), Spans: t.kept,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
