package patchindex

import (
	"fmt"
	"testing"

	"patchindex/internal/discovery"
	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

func newServingEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{DefaultPartitions: 2, PlanCache: true, ResultCache: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func counter(e *Engine, name string) int64 {
	return e.Metrics().Snapshot().Counters[name]
}

// TestPreparedRebindsOnEpochChange is the regression test for the prepared
// statement staleness bug: a long-lived Prepared must pick up (and later
// drop) patch-union rewrites when the tuner or DDL changes the index set,
// because the plan cache invalidates on the catalog epoch.
func TestPreparedRebindsOnEpochChange(t *testing.T) {
	e := newServingEngine(t)
	loadExceptionTable(t, e, "data", 4000, 2, 0.05, 42)

	prep, err := e.Prepare("SELECT COUNT(DISTINCT u) FROM data")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(res.Rows)
	if fired := counter(e, "rewrites_fired_total"); fired != 0 {
		t.Fatalf("no index yet but %d rewrites fired", fired)
	}

	// Simulate a tuner auto-create: the epoch bump must invalidate the
	// cached plan so the next prepared execution binds the new index.
	if _, err := e.CreatePatchIndex("data", "u", patch.NearlyUnique,
		discovery.BuildOptions{Threshold: 1.0, Force: true}); err != nil {
		t.Fatal(err)
	}
	res, err = e.ExecPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != want {
		t.Fatalf("result changed after index create: %s vs %s", got, want)
	}
	if fired := counter(e, "rewrites_fired_total"); fired == 0 {
		t.Fatal("prepared statement kept its stale plan: no rewrite fired after index create")
	}
	if inv := counter(e, "serving.plan_cache.invalidations"); inv == 0 {
		t.Fatal("epoch bump did not invalidate the cached plan")
	}

	// Simulate a tuner drop: the plan must rebind again and stop using the
	// dropped index (and still return the same answer).
	if err := e.DropPatchIndex("data", "u"); err != nil {
		t.Fatal(err)
	}
	firedBefore := counter(e, "rewrites_fired_total")
	res, err = e.ExecPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != want {
		t.Fatalf("result changed after index drop: %s vs %s", got, want)
	}
	if fired := counter(e, "rewrites_fired_total"); fired != firedBefore {
		t.Fatal("rewrite fired against a dropped index")
	}
}

// TestPlanCacheHitPath asserts repeated statements actually hit.
func TestPlanCacheHitPath(t *testing.T) {
	e := newServingEngine(t)
	loadExceptionTable(t, e, "data", 2000, 2, 0.05, 7)
	q := "SELECT MIN(s), MAX(s) FROM data WHERE u > 100"
	for i := 0; i < 3; i++ {
		if _, err := e.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if hits := counter(e, "serving.plan_cache.hits"); hits != 2 {
		t.Fatalf("plan cache hits = %d, want 2", hits)
	}
	if hits := counter(e, "serving.result_cache.hits"); hits != 2 {
		t.Fatalf("result cache hits = %d, want 2", hits)
	}
}

// TestResultCacheInvalidatesOnAppend proves zero stale results: any append
// to a referenced table must bump its version stamp and drop cached rows.
func TestResultCacheInvalidatesOnAppend(t *testing.T) {
	e := newServingEngine(t)
	loadExceptionTable(t, e, "data", 1000, 2, 0.0, 7)
	q := "SELECT COUNT(*) FROM data"
	res := mustExec(t, e, q)
	if res.Rows[0][0].I64 != 1000 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	mustExec(t, e, q) // populate + hit
	if hits := counter(e, "serving.result_cache.hits"); hits != 1 {
		t.Fatalf("result cache hits = %d, want 1", hits)
	}
	u := vector.NewFromInt64([]int64{100000})
	s := vector.NewFromInt64([]int64{100000})
	pay := vector.New(vector.Float64, 1)
	pay.AppendFloat64(1)
	if err := e.Append("data", 0, []*vector.Vector{u, s, pay}); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, e, q)
	if res.Rows[0][0].I64 != 1001 {
		t.Fatalf("stale result served after append: %v", res.Rows[0][0])
	}
	if stale := counter(e, "serving.result_cache.stale_evictions"); stale != 1 {
		t.Fatalf("stale evictions = %d, want 1", stale)
	}
}

// TestResultCacheSkipsNondeterministicOrder: the result cache holds
// exactly the plans plan.PropsOf calls stable, and a hit is byte-identical
// to a fresh run at the same parallelism. Props are a property of the
// logical plan, so a query hits at every parallelism or at none.
func TestResultCacheSkipsNondeterministicOrder(t *testing.T) {
	cached := newServingEngine(t)
	fresh, err := New(Config{DefaultPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	for _, e := range []*Engine{cached, fresh} {
		loadExceptionTable(t, e, "data", 1000, 2, 0.0, 7)
		mustExec(t, e, "CREATE TABLE names (k BIGINT, n VARCHAR)")
		mustExec(t, e, "INSERT INTO names VALUES (1, 'a'), (2, 'b'), (1, 'c'), (3, 'a'), (20, 'd'), (7, 'b')")
	}
	for _, c := range []struct {
		q    string
		hits int64
	}{
		// Two partitions: an Exchange at parallelism > 1.
		{"SELECT u FROM data WHERE s < 50", 0},
		// Partials merged in partition order: one group order.
		{"SELECT payload, COUNT(*) FROM data WHERE s < 500 GROUP BY payload", 1},
		{"SELECT DISTINCT n FROM names", 1},
		// The join's inputs arrive through Exchanges: groups numbered in
		// arrival order.
		{"SELECT n, COUNT(*) FROM names JOIN data ON names.k = data.u GROUP BY n", 0},
		{"SELECT k, COUNT(*) FROM names GROUP BY k ORDER BY k", 1},
	} {
		for _, par := range []int{1, 4} {
			opts := ExecOptions{Parallelism: par}
			before := counter(cached, "serving.result_cache.hits")
			var res *Result
			for i := 0; i < 2; i++ {
				if res, err = cached.ExecWith(c.q, opts); err != nil {
					t.Fatal(err)
				}
			}
			if hits := counter(cached, "serving.result_cache.hits") - before; hits != c.hits {
				t.Errorf("%s at parallelism %d: %d result-cache hits, want %d", c.q, par, hits, c.hits)
			}
			if c.hits == 0 {
				continue
			}
			want, err := fresh.ExecWith(c.q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if diff := diffCheck(diffRender(want, true), diffRender(res, true)); diff != "" {
				t.Errorf("%s at parallelism %d: the hit differs from a fresh run\n%s", c.q, par, diff)
			}
		}
	}
}

// TestServingDisabledByDefault: a default-config engine must never count
// serving cache traffic (the disabled path is a single atomic load).
func TestServingDisabledByDefault(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE kv (k BIGINT, v BIGINT)")
	mustExec(t, e, "INSERT INTO kv VALUES (1, 2)")
	mustExec(t, e, "SELECT COUNT(*) FROM kv")
	mustExec(t, e, "SELECT COUNT(*) FROM kv")
	snap := e.Metrics().Snapshot()
	for _, name := range []string{
		"serving.plan_cache.hits", "serving.plan_cache.misses",
		"serving.result_cache.hits", "serving.result_cache.misses",
	} {
		if snap.Counters[name] != 0 {
			t.Fatalf("%s = %d on a disabled cache", name, snap.Counters[name])
		}
	}
	st := e.ServingStats()
	if st.PlanCache.Enabled || st.ResultCache.Enabled {
		t.Fatal("caches must be disabled by default")
	}
}
