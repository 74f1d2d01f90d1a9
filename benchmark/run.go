package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go fails when
// the two lists differ.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the engine sees, measured with tracing off.
// Bound is the share of the parent's median by which a metric may worsen
// before a change counts as a regression. Failed operations are the fourth
// end-to-end figure; the contract reports them as failed/attempted rather
// than as a metric (a metric may never read 0, and this one must).
var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.12},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer comes from the traced run. A metric whose layer a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.bind_us", Unit: "us", Better: "lower"},
	{Name: "plan.optimize_us", Unit: "us", Better: "lower"},
	{Name: "plan.build_us", Unit: "us", Better: "lower"},
	{Name: "plan.rewrite_gain_x", Unit: "x", Better: "higher"},
	{Name: "exec.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.scan", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.patchselect", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.filter", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.agg", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.sort", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.mergeunion", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.mergejoin", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.hashjoin", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.exchange", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms.other", Unit: "ms", Better: "lower"},
	{Name: "exec.rows_in_per_row_out", Unit: "count", Better: "lower"},
	{Name: "exec.par_speedup_x", Unit: "x", Better: "higher"},
	{Name: "patch.index_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "patch.exception_rate", Unit: "ratio", Better: "lower"},
	{Name: "patch.cardinality", Unit: "count", Better: "lower"},
	{Name: "discovery.nuc_build_ms", Unit: "ms", Better: "lower"},
	{Name: "discovery.nsc_build_ms", Unit: "ms", Better: "lower"},
	{Name: "maintain.append_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.checkpoint_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.segment_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "storage.evictions", Unit: "count", Better: "lower"},
	{Name: "storage.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "compress.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.range_decoded_rows", Unit: "count", Better: "lower"},
	{Name: "server.wire_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serving.plan_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "obs.all_on_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// layerMetrics holds one traced run's per-layer values by name.
type layerMetrics map[string]float64

// fromSelectSpans fills the read-path metrics from the spans tracedSelect
// recorded: medians per statement.
func (m layerMetrics) fromSelectSpans(tr *tracer, c opCounts) {
	m["sql.parse_us"] = tr.medianDur("sql.Parse", 1e3)
	m["sql.bind_us"] = tr.medianDur("Binder.BindSelect", 1e3)
	m["plan.optimize_us"] = tr.medianDur("Optimizer.Optimize", 1e3)
	m["plan.build_us"] = tr.medianDur("plan.Build", 1e3)
	m["exec.drain_ms"] = tr.medianDur("exec.DrainContext", 1e6)
	for _, k := range opKinds {
		m["exec.self_ms."+k.kind] = tr.medianSelf("op."+k.kind, 1e6)
	}
	if c.rowsOut > 0 {
		m["exec.rows_in_per_row_out"] = float64(c.scanRows) / float64(c.rowsOut)
	}
}

// overheadPct is how much longer a takes than b, in percent of b.
func overheadPct(a, b float64) float64 { return 100 * (a/b - 1) }

func (m layerMetrics) fromIndexes(in indexInfo) {
	if in.rows == 0 {
		return
	}
	m["patch.index_bytes_per_row"] = float64(in.bytes) / float64(in.rows)
	m["patch.exception_rate"] = in.rate
	m["patch.cardinality"] = float64(in.cardinality)
}

// timedLoop calls fn until d has passed (at least once) and returns the
// times fn reported, in ms.
func timedLoop(d time.Duration, fn func(i int) (time.Duration, error)) ([]float64, error) {
	var ms []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		lat, err := fn(i)
		if err != nil {
			return nil, err
		}
		ms = append(ms, float64(lat)/1e6)
	}
	return ms, nil
}

// sample is one primary operation of the measured window.
type sample struct {
	end time.Duration // completion, since the window opened
	gap time.Duration // since the client's previous completion (or the window's opening)
	// lat is what the client waited: the engine call for a closed-loop
	// workload, and the time since the operation was due for a paced one.
	lat time.Duration
	// busy is the engine's part of gap; slow is the host's slowdown while it
	// ran (see clock.go).
	busy time.Duration
	slow float64
	err  error
}

// latMs is the calibrated latency: the engine's time rescaled to the
// reference clock, any wait before it (a paced workload's backlog) as it was.
func (s sample) latMs() float64 {
	return (float64(s.lat-s.busy) + float64(s.busy)/s.slow) / 1e6
}

// waitUntil sleeps to within 2 ms of t and spins the rest: a timer wakes up
// to a millisecond late on a shared host, which is noise of the same size as
// the differences the paced workload is there to show.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// maxFailures stops a client whose operations keep failing, so a broken
// engine cannot spin through the window on an error path.
const maxFailures = 100

// drive runs inst with the workload's clients for d. Closed loop (pace 0):
// each client issues its next operation only after the previous one
// completed. Paced: operation i is due at i*pace and waits for its turn, so a
// slow engine builds a backlog and its latency counts from the due time.
func drive(inst instance, w *workload, d time.Duration, clock *hostClock) [][]sample {
	start := time.Now()
	perClient := make([][]sample, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			failures := 0
			last := start
			for i := 0; time.Since(start) < d && failures < maxFailures; i++ {
				due := start.Add(time.Duration(i) * w.pace)
				if w.pace > 0 {
					waitUntil(due)
				}
				began := time.Now()
				busy, err := inst.op(c, i)
				now := time.Now()
				if err != nil {
					failures++
				}
				lat := busy
				if w.pace > 0 {
					lat += began.Sub(due)
				}
				perClient[c] = append(perClient[c], sample{end: now.Sub(start), gap: now.Sub(last),
					lat: lat, busy: busy, slow: clock.slowdown(began, now), err: err})
				last = now
			}
		}(c)
	}
	wg.Wait()
	return perClient
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Trace       bool    `json:"trace"`
	InputDigest string  `json:"input_digest"`
	Primary     string  `json:"primary_operation"`
	RowsPerOp   int     `json:"rows_per_op"`
	Clients     int     `json:"clients"`
	WindowS     float64 `json:"window_s"`
	WarmupS     float64 `json:"warmup_s"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`

	Metrics map[string]metricValue `json:"metrics"`
	// LatencyMs and SetupS are the distributions behind p50_ms and setup_s.
	LatencyMs *summary `json:"latency_ms,omitempty"`
	SetupS    *summary `json:"setup_s,omitempty"`
	// WallClock holds the end-to-end metrics before calibration (clock.go).
	WallClock map[string]float64 `json:"wall_clock,omitempty"`
	// WithinRunSpread is, per end-to-end metric, the interquartile spread of
	// that metric over fifths of the window (over the set-ups for setup_s),
	// as a share of the median: the run's own estimate of its noise.
	WithinRunSpread map[string]float64 `json:"within_run_spread,omitempty"`

	TraceFile        string  `json:"trace_file,omitempty"`
	TraceCoveragePct float64 `json:"trace_coverage_pct,omitempty"`
}

func (r *runResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// warmupFor is the unmeasured lead-in: a fifth of the window.
func warmupFor(window time.Duration) time.Duration { return window / 5 }

// spreadParts is how many consecutive parts of the window the within-run
// spread is taken over.
const spreadParts = 5

// rateGroups is how many consecutive groups a client's operations are cut
// into for throughput.
const rateGroups = 10

// throughput is one client's operations per second: its operations are cut
// into rateGroups consecutive groups, each group's count divided by the time
// it took, and the median taken, so that a stall in one part of the window
// (a collection, a neighbour) does not set the figure. Calibrated, the
// engine's part of that time is rescaled to the reference clock like the
// latencies; raw, it is wall-clock.
func throughput(ops []sample) (calibrated, raw float64) {
	var cal, wall []float64
	for g := 0; g < rateGroups; g++ {
		group := ops[g*len(ops)/rateGroups : (g+1)*len(ops)/rateGroups]
		if len(group) == 0 {
			continue
		}
		var c, w float64
		for _, s := range group {
			w += s.gap.Seconds()
			c += (s.gap - s.busy).Seconds() + s.busy.Seconds()/s.slow
		}
		cal = append(cal, float64(len(group))/c)
		wall = append(wall, float64(len(group))/w)
	}
	if len(cal) == 0 {
		return 0, 0
	}
	return median(cal), median(wall)
}

// runEndToEnd measures one workload with tracing off. It sets the workload
// up `setups` times, so that setup_s is a median too, and measures on the
// last instance.
func runEndToEnd(w *workload, rc runConfig, setups int) (*runResult, error) {
	res := newResult(w, rc, false)
	clock := startHostClock()
	defer clock.stopAndWait()
	var inst instance
	var setupS, rawSetupS []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, res.InputDigest, err = w.setup(rc)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		raw := time.Since(start).Seconds()
		rawSetupS = append(rawSetupS, raw)
		setupS = append(setupS, raw/clock.slowdown(start, time.Now()))
	}
	defer inst.close()

	for _, client := range drive(inst, w, warmupFor(rc.window), clock) {
		for _, s := range client {
			if s.err != nil {
				return nil, fmt.Errorf("%s: warm-up: %w", w.name, s.err)
			}
		}
	}
	perClient := drive(inst, w, rc.window, clock)

	var samples []sample
	var rate, rawRate float64
	for _, client := range perClient {
		var ok []sample
		for _, s := range client {
			res.Attempted++
			if s.err != nil {
				res.fail(s.err)
				continue
			}
			ok = append(ok, s)
		}
		samples = append(samples, ok...)
		r, raw := throughput(ok)
		rate, rawRate = rate+r, rawRate+raw
	}
	checks, failed, err := inst.finish()
	res.Attempted += checks
	res.Failed += failed
	if err != nil && len(res.Errors) < 5 {
		res.Errors = append(res.Errors, err.Error())
	}
	res.Correct = res.Failed == 0
	if len(samples) == 0 {
		return res, nil
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	var lat, rawLat []float64
	for _, s := range samples {
		lat = append(lat, s.latMs())
		rawLat = append(rawLat, float64(s.lat)/1e6)
	}
	ls, ss := summarize(lat), summarize(setupS)
	res.LatencyMs, res.SetupS = &ls, &ss
	res.Metrics["p50_ms"] = metricValue{ls.Median, "ms"}
	res.Metrics["ops_per_s"] = metricValue{rate, "1/s"}
	res.Metrics["setup_s"] = metricValue{ss.Median, "s"}
	res.WallClock = map[string]float64{"p50_ms": median(rawLat), "ops_per_s": rawRate, "setup_s": median(rawSetupS)}

	// The same two figures over consecutive fifths of the operations.
	var p50s, rates []float64
	for k := 0; k < spreadParts; k++ {
		part := samples[k*len(samples)/spreadParts : (k+1)*len(samples)/spreadParts]
		if len(part) == 0 {
			continue
		}
		var ms []float64
		for _, s := range part {
			ms = append(ms, s.latMs())
		}
		p50s = append(p50s, median(ms))
		r, _ := throughput(part)
		rates = append(rates, r)
	}
	res.WithinRunSpread = map[string]float64{"p50_ms": spread(p50s), "ops_per_s": spread(rates), "setup_s": spread(setupS)}
	return res, nil
}

// runTraced is the separate traced run: one set-up, then the instance's
// traced phase, with the spans written to outDir.
func runTraced(w *workload, rc runConfig, outDir string) (*runResult, error) {
	res := newResult(w, rc, true)
	inst, digest, err := w.setup(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	res.InputDigest = digest

	m := layerMetrics{}
	tr := newTracer()
	res.Attempted = 1
	if err := inst.traced(tr, rc.window, m); err != nil {
		res.fail(err)
	}
	res.Attempted += tr.stmts
	res.TraceCoveragePct = 100 * tr.coverage()
	if tr.coverage() < 0.95 {
		res.fail(fmt.Errorf("spans cover %.1f %% of statement wall time, want at least 95 %%", res.TraceCoveragePct))
	}
	if res.TraceFile, err = tr.write(outDir, w.name, rc.seed); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail(fmt.Errorf("%s is %v", d.Name, v))
			v = 0
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func newResult(w *workload, rc runConfig, trace bool) *runResult {
	warmup := warmupFor(rc.window)
	if trace {
		warmup = 0 // the traced run's untraced statements are its lead-in
	}
	return &runResult{
		Workload: w.name, Seed: rc.seed, Trace: trace, Primary: w.primary, RowsPerOp: w.rowsPerOp(rc.sc),
		Clients: w.clients, WindowS: rc.window.Seconds(), WarmupS: warmup.Seconds(),
		Metrics: map[string]metricValue{},
	}
}
