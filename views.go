package patchindex

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"patchindex/internal/obs"
	"patchindex/internal/sql"
	"patchindex/internal/vector"
)

// A view is one named, row-producing introspection table. SHOW <name>
// [FOR <arg>] runs it, and every front-end — the wire protocol, HTTP
// ?format=text and patchcli — reaches it through that statement, so a new
// view costs one function here.
type view struct {
	rows func(e *Engine, arg string) (*Result, error)
	// arg names the FOR argument the view requires; views without one
	// reject FOR.
	arg string
}

// views is the registry behind SHOW.
var views = map[string]view{
	"tables":           {rows: (*Engine).showTables},
	"patchindexes":     {rows: (*Engine).showPatchindexes},
	"indexes":          {rows: (*Engine).showIndexes},
	"benefits":         {rows: (*Engine).showBenefits},
	"queries":          {rows: (*Engine).showQueries},
	"metrics":          {rows: (*Engine).showMetrics},
	"profiler":         {rows: (*Engine).showProfiler},
	"workload":         {rows: (*Engine).showWorkload},
	"column_accesses":  {rows: (*Engine).showColumnAccesses},
	"shadow_tables":    {rows: (*Engine).showShadowTables},
	"tuner":            {rows: (*Engine).showTuner},
	"tuner_candidates": {rows: (*Engine).showTunerCandidates},
	"tuner_journal":    {rows: (*Engine).showTunerJournal},
	"alerts":           {rows: (*Engine).showAlerts},
	"alert_history":    {rows: (*Engine).showAlertHistory},
	"timeseries":       {rows: (*Engine).showTimeseries, arg: "metric"},
}

// surfaces lists, for each HTTP endpoint (/<name>?format=text) and patchcli
// command (\<name>; \tune renders tuner), the views it renders, in order.
var surfaces = map[string][]string{
	"stats":    {"metrics"},
	"queries":  {"queries"},
	"workload": {"profiler", "workload", "column_accesses", "shadow_tables"},
	"indexes":  {"indexes", "benefits"},
	"tuner":    {"tuner", "tuner_candidates", "tuner_journal"},
	"alerts":   {"alerts", "alert_history"},
}

// Views lists the view names SHOW accepts, sorted.
func (e *Engine) Views() []string { return sortedKeys(views) }

// SurfaceViews returns a copy of the views a surface renders, in order (nil
// for an unknown surface).
func SurfaceViews(surface string) []string { return append([]string(nil), surfaces[surface]...) }

// WriteViews runs SHOW <view> through exec for each named view and writes
// the results as aligned text, each section headed "<view>:". It stops at
// the first view that fails.
func WriteViews(w io.Writer, names []string, exec func(query string) (*Result, error)) error {
	for i, name := range names {
		res, err := exec("SHOW " + name)
		if err != nil {
			return err
		}
		sep := ""
		if i > 0 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s:\n%s", sep, name, res.String()); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) runShow(s *sql.ShowStmt) (*Result, error) {
	v, ok := views[s.What]
	switch {
	case !ok:
		return nil, fmt.Errorf("patchindex: unknown view %q (views: %s)", s.What, strings.Join(e.Views(), ", "))
	case v.arg != "" && s.Arg == "":
		return nil, fmt.Errorf("patchindex: SHOW %s needs FOR <%s>", s.What, v.arg)
	case v.arg == "" && s.Arg != "":
		return nil, fmt.Errorf("patchindex: SHOW %s takes no FOR argument", s.What)
	}
	return v.rows(e, s.Arg)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// add appends one row to a view result.
func (r *Result) add(vals ...vector.Value) { r.Rows = append(r.Rows, vals) }

// settings renders key/value pairs as a (setting, value) view.
func settings(kv ...any) *Result {
	res := &Result{Columns: []string{"setting", "value"}}
	for i := 0; i+1 < len(kv); i += 2 {
		res.add(vector.StringValue(fmt.Sprint(kv[i])), vector.StringValue(fmt.Sprint(kv[i+1])))
	}
	return res
}

// micros renders nanoseconds as a duration rounded to microseconds.
func micros(nanos float64) vector.Value {
	return vector.StringValue(time.Duration(nanos).Round(time.Microsecond).String())
}

// clipSQL collapses whitespace and cuts the text to at most max bytes on a
// rune boundary, marking the cut with "...".
func clipSQL(s string, max int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "..."
}

func (e *Engine) showTables(string) (*Result, error) {
	// TableNames is sorted, so the output is deterministic; each table is
	// latched shared while its row is rendered so counts are consistent
	// under concurrent writers.
	res := &Result{Columns: []string{"table", "rows", "partitions", "sortkey"}}
	for _, name := range e.cat.TableNames() {
		t, err := e.cat.Table(name)
		if err != nil {
			continue // dropped concurrently
		}
		release := e.acquireLatches([]string{name}, nil)
		res.add(vector.StringValue(name), vector.IntValue(int64(t.NumRows())),
			vector.IntValue(int64(t.NumPartitions())), vector.StringValue(t.SortKey()))
		release()
	}
	return res, nil
}

func (e *Engine) showPatchindexes(string) (*Result, error) {
	// Indexes() is sorted by (table, column, constraint), so the output is
	// deterministic and diffable; each index's table is latched shared while
	// its row is rendered. origin distinguishes manual from tuner-created
	// indexes; benefit is the decayed cost-saved from the workload
	// observatory (0 when profiling is off or never used).
	res := &Result{Columns: []string{"table", "column", "constraint", "kind", "patches", "rate", "bytes", "origin", "benefit", "last_used_tick"}}
	tick := e.profiler.Tick()
	for _, ix := range e.cat.Indexes() {
		release := e.acquireLatches([]string{ix.Table()}, nil)
		var benefit float64
		var lastUsed int64
		if b, ok := e.profiler.Benefit().Lookup(ix.Table(), ix.Column(), constraintTag(ix.Constraint()), tick); ok {
			benefit = b.CostSaved
			lastUsed = b.LastUsedTick
		}
		res.add(
			vector.StringValue(ix.Table()),
			vector.StringValue(ix.Column()),
			vector.StringValue(ix.Constraint().String()),
			vector.StringValue(ix.RequestedKind().String()),
			vector.IntValue(int64(ix.Cardinality())),
			vector.FloatValue(ix.ExceptionRate()),
			vector.IntValue(int64(ix.MemoryBytes())),
			vector.StringValue(ix.Origin()),
			vector.FloatValue(benefit),
			vector.IntValue(lastUsed),
		)
		release()
	}
	return res, nil
}

// showIndexes renders IndexHealth: one row per PatchIndex with its patch
// ratio against the bitmap crossover and its benefit attribution.
func (e *Engine) showIndexes(string) (*Result, error) {
	res := &Result{Columns: []string{"table", "column", "constraint", "requested_kind", "kinds", "patches", "rows",
		"patch_ratio", "threshold_utilization", "memory_bytes", "rewrites", "rows_skipped", "cost_saved",
		"time_saved", "last_used_tick", "zone_stale_rows", "zone_stale_partitions"}}
	for _, h := range e.IndexHealth() {
		res.add(vector.StringValue(h.Table), vector.StringValue(h.Column), vector.StringValue(h.Constraint),
			vector.StringValue(h.RequestedKind), vector.StringValue(h.Kinds),
			vector.IntValue(int64(h.Patches)), vector.IntValue(int64(h.Rows)),
			vector.FloatValue(h.PatchRatio), vector.FloatValue(h.ThresholdUtilization),
			vector.IntValue(int64(h.MemoryBytes)), vector.IntValue(h.Rewrites),
			vector.FloatValue(h.RowsSkipped), vector.FloatValue(h.CostSaved), micros(h.TimeSavedNanos),
			vector.IntValue(h.LastUsedTick), vector.IntValue(int64(h.ZoneStaleRows)),
			vector.IntValue(int64(h.ZoneStalePartitions)))
	}
	return res, nil
}

// showBenefits renders the decayed benefit attribution of every index the
// workload observatory credited, including pseudo-indexes without a catalog
// entry (a table's zone maps: constraint "zonemap", empty column).
func (e *Engine) showBenefits(string) (*Result, error) {
	res := &Result{Columns: []string{"table", "column", "constraint", "rewrites", "rows_skipped", "cost_saved", "time_saved", "last_used_tick"}}
	for _, b := range e.profiler.Benefit().Snapshot(e.profiler.Tick()) {
		res.add(vector.StringValue(b.Table), vector.StringValue(b.Column), vector.StringValue(b.Constraint),
			vector.IntValue(b.Rewrites), vector.FloatValue(b.RowsSkipped), vector.FloatValue(b.CostSaved),
			micros(b.TimeSavedNanos), vector.IntValue(b.LastUsedTick))
	}
	return res, nil
}

// showQueries renders the recent query history (the tracer's ring), newest
// first.
func (e *Engine) showQueries(string) (*Result, error) {
	res := &Result{Columns: []string{"trace_id", "session", "duration", "rows", "patch_hits", "sampled", "error", "sql"}}
	for _, t := range e.tracer.Recent(50) {
		res.add(vector.IntValue(int64(t.ID)), vector.IntValue(int64(t.SessionID)), micros(float64(t.Duration)),
			vector.IntValue(t.Rows), vector.IntValue(t.PatchHits), vector.BoolValue(t.Sampled),
			vector.StringValue(t.Error), vector.StringValue(clipSQL(t.SQL, 80)))
	}
	return res, nil
}

// showMetrics renders the metrics registry: counters and gauges with their
// value, histograms with their count and quantiles.
func (e *Engine) showMetrics(string) (*Result, error) {
	snap := e.metrics.Snapshot()
	res := &Result{Columns: []string{"metric", "kind", "value", "p50_nanos", "p95_nanos", "p99_nanos"}}
	none := vector.NullValue(vector.Int64)
	for _, name := range sortedKeys(snap.Counters) {
		res.add(vector.StringValue(name), vector.StringValue("counter"), vector.IntValue(snap.Counters[name]), none, none, none)
	}
	for _, name := range sortedKeys(snap.Gauges) {
		res.add(vector.StringValue(name), vector.StringValue("gauge"), vector.IntValue(snap.Gauges[name]), none, none, none)
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		res.add(vector.StringValue(name), vector.StringValue("histogram"), vector.IntValue(h.Count),
			vector.IntValue(h.P50Nanos), vector.IntValue(h.P95Nanos), vector.IntValue(h.P99Nanos))
	}
	return res, nil
}

// showProfiler renders the workload observatory's state; its statements,
// column accesses and shadow tables are the next three views.
func (e *Engine) showProfiler(string) (*Result, error) {
	snap := e.profiler.Snapshot()
	return settings(
		"enabled", snap.Enabled,
		"tick", snap.Tick,
		"fingerprints", len(snap.Statements),
		"max_fingerprints", snap.MaxFingerprints,
		"dropped", snap.Dropped,
	), nil
}

// showWorkload renders the statement fingerprint table, heaviest total time
// first.
func (e *Engine) showWorkload(string) (*Result, error) {
	res := &Result{Columns: []string{"fingerprint", "calls", "errors", "rows", "total", "ewma", "patch_hits",
		"partitions_pruned", "shadow_savings", "sql"}}
	for _, st := range e.profiler.Snapshot().Statements {
		res.add(vector.StringValue(st.Fingerprint), vector.IntValue(st.Count), vector.IntValue(st.Errors),
			vector.IntValue(st.RowsOut), micros(float64(st.TotalNanos)), micros(float64(st.EWMANanos)),
			vector.IntValue(st.PatchHits), vector.IntValue(st.PartitionsPruned),
			vector.FloatValue(st.ShadowSavings), vector.StringValue(st.SQL))
	}
	return res, nil
}

// showColumnAccesses renders per-column access accounting; min_seen and
// max_seen are NULL until a numeric predicate bound was observed.
func (e *Engine) showColumnAccesses(string) (*Result, error) {
	res := &Result{Columns: []string{"table", "column", "predicate", "sort", "group", "join", "min_seen", "max_seen"}}
	for _, c := range e.profiler.Snapshot().Columns {
		lo, hi := vector.NullValue(vector.Float64), vector.NullValue(vector.Float64)
		if c.HasRange {
			lo, hi = vector.FloatValue(c.MinSeen), vector.FloatValue(c.MaxSeen)
		}
		res.add(vector.StringValue(c.Table), vector.StringValue(c.Column), vector.IntValue(c.PredicateCount),
			vector.IntValue(c.SortKeyCount), vector.IntValue(c.GroupByCount), vector.IntValue(c.JoinKeyCount), lo, hi)
	}
	return res, nil
}

// showShadowTables renders the decayed per-table "would-have-helped"
// savings of rewrite shapes that found no applicable PatchIndex.
func (e *Engine) showShadowTables(string) (*Result, error) {
	res := &Result{Columns: []string{"table", "savings", "count"}}
	for _, sh := range e.profiler.Snapshot().ShadowTables {
		res.add(vector.StringValue(sh.Table), vector.FloatValue(sh.Savings), vector.IntValue(sh.Count))
	}
	return res, nil
}

// showTuner renders SHOW TUNER as a deterministic key/value table. The
// baseline index list is counted here and listed in full by /tuner.
func (e *Engine) showTuner(string) (*Result, error) {
	st := e.tuner.Status()
	return settings(
		"running", st.Running,
		"interval_millis", st.IntervalMillis,
		"cycles", st.Cycles,
		"creates", st.Creates,
		"drops", st.Drops,
		"rejects", st.Rejects,
		"rollbacks", st.Rollbacks,
		"tick", st.Tick,
		"epoch", st.Epoch,
		"auto_live", st.AutoLive,
		"auto_memory_bytes", st.AutoMemoryBytes,
		"memory_budget_bytes", st.MemoryBudgetBytes,
		"max_builds_per_cycle", st.MaxBuildsPerCycle,
		"max_auto_indexes", st.MaxAutoIndexes,
		"min_score", st.MinScore,
		"baseline_indexes", len(st.Baseline),
		"journal_events", len(st.Journal),
	), nil
}

// showTunerCandidates renders the last tuning cycle's ranked candidates.
func (e *Engine) showTunerCandidates(string) (*Result, error) {
	res := &Result{Columns: []string{"table", "column", "constraint", "score", "accesses", "reason"}}
	for _, c := range e.tuner.Status().LastCandidates {
		res.add(vector.StringValue(c.Table), vector.StringValue(c.Column), vector.StringValue(c.Constraint),
			vector.FloatValue(c.Score), vector.IntValue(c.Accesses), vector.StringValue(c.Reason))
	}
	return res, nil
}

// showTunerJournal renders the tuner's bounded action journal, oldest first.
func (e *Engine) showTunerJournal(string) (*Result, error) {
	res := &Result{Columns: []string{"seq", "cycle", "tick", "action", "table", "column", "constraint", "score", "note", "error"}}
	for _, ev := range e.tuner.Status().Journal {
		res.add(vector.IntValue(ev.Seq), vector.IntValue(ev.Cycle), vector.IntValue(ev.Tick),
			vector.StringValue(ev.Action), vector.StringValue(ev.Table), vector.StringValue(ev.Column),
			vector.StringValue(ev.Constraint), vector.FloatValue(ev.Score), vector.StringValue(ev.Note),
			vector.StringValue(ev.Err))
	}
	return res, nil
}

// showAlerts renders every tracked alert standing, firing first (the same
// document /alerts serves).
func (e *Engine) showAlerts(string) (*Result, error) {
	res := &Result{Columns: []string{"rule", "metric", "severity", "state", "value", "threshold", "crossover_seconds", "message"}}
	for _, al := range e.monitor.Alerter().Alerts() {
		res.add(
			vector.StringValue(al.Rule),
			vector.StringValue(al.Metric),
			vector.StringValue(al.Severity),
			vector.StringValue(al.State),
			vector.FloatValue(al.Value),
			vector.FloatValue(al.Threshold),
			vector.FloatValue(al.CrossoverSeconds),
			vector.StringValue(al.Message),
		)
	}
	return res, nil
}

// showAlertHistory renders the alert transition and event ring, newest
// first.
func (e *Engine) showAlertHistory(string) (*Result, error) {
	res := &Result{Columns: []string{"seq", "unix_nanos", "state", "severity", "rule", "metric", "value", "message"}}
	for _, ev := range e.monitor.Alerter().History(0) {
		res.add(vector.IntValue(int64(ev.Seq)), vector.IntValue(ev.UnixNanos), vector.StringValue(ev.State),
			vector.StringValue(ev.Alert.Severity), vector.StringValue(ev.Alert.Rule),
			vector.StringValue(ev.Alert.Metric), vector.FloatValue(ev.Alert.Value),
			vector.StringValue(ev.Alert.Message))
	}
	return res, nil
}

// showTimeseries renders SHOW TIMESERIES FOR <metric>: the metric's raw
// retained points, oldest first.
func (e *Engine) showTimeseries(metric string) (*Result, error) {
	set := e.monitor.Series()
	s := set.Lookup(metric)
	if s == nil {
		return nil, fmt.Errorf("patchindex: unknown metric %q (%d series recorded; see /timeseries)", metric, len(set.Names()))
	}
	res := &Result{Columns: []string{"unix_nanos", "last", "min", "max", "mean", "count"}}
	for _, p := range s.Points(obs.TierRaw) {
		res.add(
			vector.IntValue(p.UnixNanos),
			vector.FloatValue(p.Last),
			vector.FloatValue(p.Min),
			vector.FloatValue(p.Max),
			vector.FloatValue(p.Mean()),
			vector.IntValue(p.Count),
		)
	}
	return res, nil
}
