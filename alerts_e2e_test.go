package patchindex

import (
	"strings"
	"testing"
	"time"

	"patchindex/internal/obs"
	"patchindex/internal/vector"
)

// TestAlertDriftFiresAndResolvesE2E is the watchdog's acceptance test: real
// ingest drives a greedily-maintained NSC index's patch ratio past the 1/64
// crossover, the patch_ratio_drift alert fires (naming the index series and
// the crossover), the firing alert feeds the tuner a rebuild candidate, the
// rebuild collapses the patch set back to the minimal one full discovery
// finds, and the alert resolves.
func TestAlertDriftFiresAndResolvesE2E(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE drifty (s BIGINT) PARTITIONS 1")

	// Sorted seed data: discovery finds zero patches.
	seed := vector.New(vector.Int64, 1000)
	for i := 0; i < 1000; i++ {
		seed.AppendInt64(int64(i))
	}
	if err := e.Append("drifty", 0, []*vector.Vector{seed}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE PATCHINDEX ON drifty(s) SORTED THRESHOLD 0.5")

	// Drive sampling with a synthetic clock so drift slopes are
	// deterministic; the sampler goroutine stays off.
	m := e.Monitor()
	now := int64(time.Second)
	m.SetClock(func() int64 { return now })
	tick := func() {
		m.SampleNow()
		now += int64(time.Second)
	}

	tick()
	if firing := m.Alerter().Firing(); len(firing) != 0 {
		t.Fatalf("alert firing on a clean index: %+v", firing)
	}

	// Ingest one huge value followed by ascending smaller ones: greedy
	// incremental maintenance keeps the huge value as "last" and patches
	// every following row, inflating the ratio far past 1/64 — while a full
	// rebuild would patch only the single outlier.
	bad := vector.New(vector.Int64, 201)
	bad.AppendInt64(1_000_000)
	for i := 0; i < 200; i++ {
		bad.AppendInt64(int64(1000 + i))
	}
	if err := e.Append("drifty", 0, []*vector.Vector{bad}); err != nil {
		t.Fatal(err)
	}

	tick()
	firing := m.Alerter().Firing()
	if len(firing) != 1 {
		t.Fatalf("patch_ratio_drift did not fire after ingest: %+v", m.Alerter().Alerts())
	}
	al := firing[0]
	if al.Rule != "patch_ratio_drift" || al.Metric != "index.drifty.s.nsc.patch_ratio" {
		t.Fatalf("firing alert = %+v, want patch_ratio_drift on index.drifty.s.nsc.patch_ratio", al)
	}
	if al.Value <= obs.DefaultCrossoverRate {
		t.Fatalf("alert value %.5f should be past the %.5f crossover", al.Value, obs.DefaultCrossoverRate)
	}
	if al.CrossoverSeconds != 0 || !strings.Contains(al.Message, "crossover") {
		t.Fatalf("alert should name the crossover: %+v", al)
	}

	// SHOW ALERTS surfaces the firing standing.
	res := mustExec(t, e, "SHOW ALERTS")
	foundFiring := false
	for _, row := range res.Rows {
		if row[0].Str == "patch_ratio_drift" && row[3].Str == obs.StateFiring {
			foundFiring = true
			if row[1].Str != "index.drifty.s.nsc.patch_ratio" {
				t.Fatalf("SHOW ALERTS metric = %q", row[1].Str)
			}
		}
	}
	if !foundFiring {
		t.Fatalf("SHOW ALERTS has no firing patch_ratio_drift row: %+v", res.Rows)
	}

	// The firing alert was reported to the tuner; its next cycle rebuilds.
	cycle := e.Tuner().RunCycle()
	rebuilt := false
	for _, ev := range cycle.Events {
		if ev.Action == "rebuild" && ev.Table == "drifty" && ev.Column == "s" && ev.Err == "" {
			rebuilt = true
		}
	}
	if !rebuilt {
		t.Fatalf("tuner cycle performed no drift rebuild: %+v", cycle)
	}
	if got := e.Tuner().Status().Rebuilds; got != 1 {
		t.Fatalf("tuner rebuilds = %d, want 1", got)
	}

	// Rebuild collapsed the patch set: full discovery patches only the one
	// outlier instead of everything after it.
	for _, h := range e.IndexHealth() {
		if h.Table == "drifty" && h.PatchRatio >= obs.DefaultCrossoverRate {
			t.Fatalf("post-rebuild patch ratio still %.5f: %+v", h.PatchRatio, h)
		}
	}

	// Two more clean samples resolve the alert (ResolveAfter=2).
	tick()
	tick()
	if got := m.Alerter().Firing(); len(got) != 0 {
		t.Fatalf("alert did not resolve after rebuild: %+v", got)
	}
	resolved := false
	for _, a := range m.Alerter().Alerts() {
		if a.Rule == "patch_ratio_drift" && a.State == obs.StateResolved {
			resolved = true
		}
	}
	if !resolved {
		t.Fatalf("no resolved standing after rebuild: %+v", m.Alerter().Alerts())
	}

	// The history ring holds the full story: firing, the tuner's rebuild
	// event (mirrored via onTunerEvent), and the resolution.
	var sawFiring, sawRebuild, sawResolved bool
	for _, ev := range m.Alerter().History(0) {
		switch {
		case ev.State == obs.StateFiring && ev.Alert.Rule == "patch_ratio_drift":
			sawFiring = true
		case ev.State == "event" && ev.Alert.Rule == "tuner_rebuild":
			sawRebuild = true
		case ev.State == obs.StateResolved && ev.Alert.Rule == "patch_ratio_drift":
			sawResolved = true
		}
	}
	if !sawFiring || !sawRebuild || !sawResolved {
		t.Fatalf("history missing transitions: firing=%v rebuild=%v resolved=%v",
			sawFiring, sawRebuild, sawResolved)
	}

	// The rebuild also refreshed the zone maps, so staleness restarted.
	if p, ok := m.Series().Lookup("table.drifty.zone_stale_rows").Latest(); !ok || p.Last != 0 {
		t.Fatalf("zone staleness after rebuild = %+v, want 0", p)
	}

	// \alerts (the alerts surface's views) tells the same story as text.
	var sb strings.Builder
	if err := WriteViews(&sb, SurfaceViews("alerts"), e.Exec); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "patch_ratio_drift") || !strings.Contains(text, "tuner_rebuild") {
		t.Fatalf("alerts views missing alert lines:\n%s", text)
	}
}

// TestShowTimeseriesSQL covers the SHOW TIMESERIES FOR <metric> surface.
func TestShowTimeseriesSQL(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE ts (v BIGINT) PARTITIONS 1")

	m := e.Monitor()
	now := int64(time.Second)
	m.SetClock(func() int64 { return now })
	for i := 0; i < 3; i++ {
		m.SampleNow()
		now += int64(time.Second)
	}

	res := mustExec(t, e, "SHOW TIMESERIES FOR table.ts.zone_stale_rows")
	if len(res.Columns) != 6 || res.Columns[0] != "unix_nanos" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d points, want 3", len(res.Rows))
	}
	for i, row := range res.Rows {
		wantT := int64(i+1) * int64(time.Second)
		if row[0].I64 != wantT {
			t.Fatalf("row %d unix_nanos = %d, want %d", i, row[0].I64, wantT)
		}
	}
	// Quoted metric names parse too.
	res2 := mustExec(t, e, `SHOW TIMESERIES FOR 'gauge.runtime_goroutines'`)
	if len(res2.Rows) != 3 {
		t.Fatalf("quoted metric returned %d points, want 3", len(res2.Rows))
	}
	if _, err := e.Exec("SHOW TIMESERIES FOR no.such.metric"); err == nil {
		t.Fatal("unknown metric should error")
	}
	if _, err := e.Exec("SHOW TIMESERIES"); err == nil {
		t.Fatal("SHOW TIMESERIES without FOR should error")
	}
}

// TestMonitorConfigStartsSampler checks the Config.Monitor wiring: the
// sampler goroutine runs, collects engine series, and stops with the engine.
func TestMonitorConfigStartsSampler(t *testing.T) {
	e, err := New(Config{Monitor: true, SampleInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.Monitor().Enabled() {
		t.Fatal("monitor not running with Config.Monitor set")
	}
	mustExec(t, e, "CREATE TABLE cfg (v BIGINT) PARTITIONS 1")
	deadline := time.Now().Add(2 * time.Second)
	for e.Monitor().Samples() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if e.Monitor().Samples() < 2 {
		t.Fatalf("sampler took %d samples", e.Monitor().Samples())
	}
	if s := e.Monitor().Series().Lookup("gauge.runtime_goroutines"); s == nil {
		t.Fatalf("runtime series missing; have %v", e.Monitor().Series().Names())
	}
	e.Close() // must stop the sampler; double-close via defer stays safe
	if e.Monitor().Enabled() {
		t.Fatal("monitor still enabled after engine Close")
	}
}
