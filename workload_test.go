package patchindex

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"patchindex/internal/plan"
)

// TestWorkloadFixtureAgreement runs a hand-computed fixture workload and
// checks that EXPLAIN ANALYZE's shadow_savings/index_benefit lines, the
// profiler snapshot (/workload), and the benefit tracker (/indexes) all
// agree with the cost model's closed-form estimates.
func TestWorkloadFixtureAgreement(t *testing.T) {
	const n = 5000
	e, err := New(Config{WorkloadProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadExceptionTable(t, e, "data", n, 4, 0.05, 7)

	// No index yet: both shapes must shadow-account with exactly the cost
	// model's closed-form savings for an n-row table.
	res := mustExec(t, e, "EXPLAIN ANALYZE SELECT s FROM data ORDER BY s")
	wantSort := plan.ShadowSortSavings(n)
	sortLine := fmt.Sprintf("shadow_savings=%.1f table=data column=s constraint=nsc shape=sort", wantSort)
	if !strings.Contains(res.Message, sortLine) {
		t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", sortLine, res.Message)
	}
	res = mustExec(t, e, "EXPLAIN ANALYZE SELECT COUNT(DISTINCT u) FROM data")
	wantDistinct := plan.ShadowDistinctSavings(n)
	distinctLine := fmt.Sprintf("shadow_savings=%.1f table=data column=u constraint=nuc shape=count_distinct", wantDistinct)
	if !strings.Contains(res.Message, distinctLine) {
		t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", distinctLine, res.Message)
	}
	if !strings.Contains(res.Message, "fingerprint=") {
		t.Fatalf("EXPLAIN ANALYZE missing fingerprint line:\n%s", res.Message)
	}

	// The /workload document's per-table shadow accumulator carries the sum
	// of both estimates (modulo at most a few ticks of half-life-4096 decay).
	snap := e.Profiler().Snapshot()
	var gotShadow float64
	for _, sh := range snap.ShadowTables {
		if sh.Table == "data" {
			gotShadow = sh.Savings
		}
	}
	wantShadow := wantSort + wantDistinct
	if rel := math.Abs(gotShadow-wantShadow) / wantShadow; rel > 0.01 {
		t.Fatalf("snapshot shadow savings = %v, want ~%v (rel err %v)", gotShadow, wantShadow, rel)
	}

	// With the NSC index in place the sort query rewrites; EXPLAIN ANALYZE's
	// index_benefit cost_saved and the benefit tracker must agree.
	mustExec(t, e, "CREATE PATCHINDEX ON data(s) SORTED THRESHOLD 0.5")
	res = mustExec(t, e, "EXPLAIN ANALYZE SELECT s FROM data ORDER BY s")
	m := regexp.MustCompile(`index_benefit=data\.s\[nsc\] cost_base=[\d.]+ cost_rewritten=[\d.]+ cost_saved=([\d.]+)`).
		FindStringSubmatch(res.Message)
	if m == nil {
		t.Fatalf("EXPLAIN ANALYZE missing index_benefit for data.s[nsc]:\n%s", res.Message)
	}
	explainSaved, _ := strconv.ParseFloat(m[1], 64)
	if explainSaved <= 0 {
		t.Fatalf("rewrite reported no cost saved:\n%s", res.Message)
	}

	p := e.Profiler()
	b, ok := p.Benefit().Lookup("data", "s", "nsc", p.Tick())
	if !ok {
		t.Fatal("benefit tracker has no entry for data.s[nsc]")
	}
	if b.Rewrites != 1 {
		t.Fatalf("rewrites = %d, want 1", b.Rewrites)
	}
	if rel := math.Abs(b.CostSaved-explainSaved) / explainSaved; rel > 0.01 {
		t.Fatalf("benefit cost_saved = %v, EXPLAIN says %v (rel err %v)", b.CostSaved, explainSaved, rel)
	}
	if b.TimeSavedNanos <= 0 || b.LastUsedTick != p.Tick() {
		t.Fatalf("time_saved=%v last_used_tick=%d (tick %d)", b.TimeSavedNanos, b.LastUsedTick, p.Tick())
	}

	// The /indexes view (IndexHealth) carries the same attribution.
	var found bool
	for _, h := range e.IndexHealth() {
		if h.Table == "data" && h.Column == "s" {
			found = true
			if h.Rewrites != 1 || h.LastUsedTick != b.LastUsedTick {
				t.Fatalf("IndexHealth attribution = %+v, want rewrites 1, last_used_tick %d", h, b.LastUsedTick)
			}
			if rel := math.Abs(h.CostSaved-explainSaved) / explainSaved; rel > 0.01 {
				t.Fatalf("IndexHealth cost_saved = %v, EXPLAIN says %v", h.CostSaved, explainSaved)
			}
		}
	}
	if !found {
		t.Fatal("no IndexHealth entry for data.s")
	}
}

// TestIndexBenefitLastUsedTickMonotonic: last-used is an engine-relative
// statement tick that only moves forward and only when the index is used
// (satellite: no wall-clock in index health).
func TestIndexBenefitLastUsedTickMonotonic(t *testing.T) {
	e, err := New(Config{WorkloadProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadExceptionTable(t, e, "data", 2000, 2, 0.05, 3)
	mustExec(t, e, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5")

	p := e.Profiler()
	mustExec(t, e, "SELECT COUNT(DISTINCT u) FROM data")
	b1, ok := p.Benefit().Lookup("data", "u", "nuc", p.Tick())
	if !ok || b1.LastUsedTick == 0 {
		t.Fatalf("no benefit after index use: %+v", b1)
	}
	if b1.LastUsedTick != p.Tick() {
		t.Fatalf("last_used_tick = %d, want current tick %d", b1.LastUsedTick, p.Tick())
	}

	// Statements that do not use the index advance the clock but not the
	// index's last-used tick.
	mustExec(t, e, "SELECT COUNT(*) FROM data")
	mustExec(t, e, "SELECT COUNT(*) FROM data")
	b2, _ := p.Benefit().Lookup("data", "u", "nuc", p.Tick())
	if b2.LastUsedTick != b1.LastUsedTick {
		t.Fatalf("last_used_tick moved without a use: %d → %d", b1.LastUsedTick, b2.LastUsedTick)
	}

	mustExec(t, e, "SELECT COUNT(DISTINCT u) FROM data")
	b3, _ := p.Benefit().Lookup("data", "u", "nuc", p.Tick())
	if b3.LastUsedTick <= b2.LastUsedTick || b3.LastUsedTick != p.Tick() {
		t.Fatalf("last_used_tick = %d after reuse at tick %d (was %d)", b3.LastUsedTick, p.Tick(), b2.LastUsedTick)
	}
}

// TestWorkloadFingerprintInHistory: completed statements in the tracer's
// history ring carry their workload fingerprint when profiling is on.
func TestWorkloadFingerprintInHistory(t *testing.T) {
	e, err := New(Config{WorkloadProfile: true, TraceSample: 1, TraceHistory: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, "CREATE TABLE t (x BIGINT)")
	mustExec(t, e, "INSERT INTO t VALUES (1), (2)")
	mustExec(t, e, "SELECT x FROM t WHERE x = 1")
	mustExec(t, e, "SELECT x FROM t WHERE x = 2")

	recent := e.Tracer().Recent(10)
	var fps []uint64
	for _, tr := range recent {
		if strings.HasPrefix(tr.SQL, "SELECT") {
			fps = append(fps, tr.Fingerprint)
		}
	}
	if len(fps) != 2 || fps[0] == 0 || fps[0] != fps[1] {
		t.Fatalf("history fingerprints = %v, want two equal non-zero ids", fps)
	}
}

// BenchmarkExecWorkloadOff measures the per-statement cost with the workload
// observatory disabled (the default); compare against BenchmarkExecWorkloadOn
// for the profiling overhead. The disabled path is one atomic load.
func BenchmarkExecWorkloadOff(b *testing.B) {
	benchmarkExecWorkload(b, false)
}

func BenchmarkExecWorkloadOn(b *testing.B) {
	benchmarkExecWorkload(b, true)
}

func benchmarkExecWorkload(b *testing.B, profile bool) {
	e, err := New(Config{WorkloadProfile: profile})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Exec("CREATE TABLE t (x BIGINT, y BIGINT)"); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(fmt.Sprintf("(%d, %d)", i, i%7))
	}
	if _, err := e.Exec(sb.String()); err != nil {
		b.Fatal(err)
	}
	q := "SELECT COUNT(*) FROM t WHERE y = 3"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}
