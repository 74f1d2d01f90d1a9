package patchindex

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

func mustExec(t testing.TB, e *Engine, q string) *Result {
	t.Helper()
	res, err := e.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestEndToEndBasics(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE emp (id BIGINT, name VARCHAR, salary DOUBLE)")
	mustExec(t, e, "INSERT INTO emp VALUES (1, 'ann', 10.5), (2, 'bob', 20.0), (3, 'ann', 30.0), (4, NULL, 5.0)")

	res := mustExec(t, e, "SELECT id, name FROM emp WHERE salary > 10 ORDER BY id DESC")
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].I64 != 3 || res.Rows[2][0].I64 != 1 {
		t.Errorf("wrong order: %v", res.Rows)
	}

	res = mustExec(t, e, "SELECT name, COUNT(*) AS n, SUM(salary) AS total FROM emp GROUP BY name HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 {
		t.Fatalf("expected 1 group, got %v", res.Rows)
	}
	if res.Rows[0][0].Str != "ann" || res.Rows[0][1].I64 != 2 || res.Rows[0][2].F64 != 40.5 {
		t.Errorf("wrong group row: %v", res.Rows[0])
	}

	res = mustExec(t, e, "SELECT COUNT(DISTINCT name) FROM emp")
	if res.Rows[0][0].I64 != 2 {
		t.Errorf("count distinct: want 2, got %v", res.Rows[0][0])
	}
}

// loadExceptionTable fills a table with n int64 values that are unique
// except that ~rate of the rows repeat values from a small fixed pool, and
// are sorted except for the same fraction of misplaced rows. Returns the
// exact values per column for oracle checks.
func loadExceptionTable(t *testing.T, e *Engine, name string, n, parts int, rate float64, seed int64) (uniqcol, sortcol []int64) {
	t.Helper()
	mustExec(t, e, fmt.Sprintf("CREATE TABLE %s (u BIGINT, s BIGINT, payload DOUBLE) PARTITIONS %d", name, parts))
	rng := rand.New(rand.NewSource(seed))
	uniqcol = make([]int64, n)
	sortcol = make([]int64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < rate {
			uniqcol[i] = int64(1_000_000_000 + rng.Intn(50)) // duplicate pool
		} else {
			uniqcol[i] = int64(i)
		}
		if rng.Float64() < rate {
			sortcol[i] = rng.Int63n(int64(n))
		} else {
			sortcol[i] = int64(i)
		}
	}
	per := (n + parts - 1) / parts
	for p := 0; p < parts; p++ {
		lo, hi := p*per, (p+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			lo = hi
		}
		u := vector.NewFromInt64(append([]int64{}, uniqcol[lo:hi]...))
		s := vector.NewFromInt64(append([]int64{}, sortcol[lo:hi]...))
		f := vector.New(vector.Float64, hi-lo)
		for i := lo; i < hi; i++ {
			f.AppendFloat64(float64(i))
		}
		if err := e.LoadColumns(name, p, []*vector.Vector{u, s, f}); err != nil {
			t.Fatalf("LoadColumns: %v", err)
		}
	}
	return uniqcol, sortcol
}

func distinctCount(vals []int64) int64 {
	m := map[int64]bool{}
	for _, v := range vals {
		m[v] = true
	}
	return int64(len(m))
}

func TestPatchIndexDistinctRewriteMatchesBaseline(t *testing.T) {
	for _, parts := range []int{1, 4} {
		for _, kind := range []string{"IDENTIFIER", "BITMAP"} {
			t.Run(fmt.Sprintf("parts=%d/kind=%s", parts, kind), func(t *testing.T) {
				e := newTestEngine(t)
				uniq, _ := loadExceptionTable(t, e, "data", 20000, parts, 0.05, 42)
				mustExec(t, e, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5 KIND "+kind)

				q := "SELECT COUNT(DISTINCT u) FROM data"
				withPI := mustExec(t, e, q)
				baseline, err := e.ExecWith(q, ExecOptions{DisablePatchRewrites: true})
				if err != nil {
					t.Fatal(err)
				}
				want := distinctCount(uniq)
				if withPI.Rows[0][0].I64 != want {
					t.Errorf("with PI: got %d want %d", withPI.Rows[0][0].I64, want)
				}
				if baseline.Rows[0][0].I64 != want {
					t.Errorf("baseline: got %d want %d", baseline.Rows[0][0].I64, want)
				}

				// SELECT DISTINCT u must return the same set of values.
				dq := "SELECT DISTINCT u FROM data"
				withSet := collectInts(t, mustExec(t, e, dq), 0)
				baseRes, err := e.ExecWith(dq, ExecOptions{DisablePatchRewrites: true})
				if err != nil {
					t.Fatal(err)
				}
				baseSet := collectInts(t, baseRes, 0)
				if len(withSet) != len(baseSet) {
					t.Fatalf("distinct sets differ in size: %d vs %d", len(withSet), len(baseSet))
				}
				for i := range withSet {
					if withSet[i] != baseSet[i] {
						t.Fatalf("distinct sets differ at %d: %d vs %d", i, withSet[i], baseSet[i])
					}
				}
				// And the plan must actually use the PatchedScan.
				exp := mustExec(t, e, "EXPLAIN "+dq)
				if !strings.Contains(exp.Message, "PatchedScan") {
					t.Errorf("expected PatchedScan in plan:\n%s", exp.Message)
				}
			})
		}
	}
}

func collectInts(t *testing.T, res *Result, col int) []int64 {
	t.Helper()
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		if r[col].Null {
			continue
		}
		out = append(out, r[col].I64)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestPatchIndexSortRewriteMatchesBaseline(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			e := newTestEngine(t)
			_, sorted := loadExceptionTable(t, e, "data", 15000, parts, 0.08, 7)
			mustExec(t, e, "CREATE PATCHINDEX ON data(s) SORTED THRESHOLD 0.5")

			q := "SELECT s FROM data ORDER BY s"
			withPI := mustExec(t, e, q)
			base, err := e.ExecWith(q, ExecOptions{DisablePatchRewrites: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(withPI.Rows) != len(sorted) || len(base.Rows) != len(sorted) {
				t.Fatalf("row counts: with=%d base=%d want=%d", len(withPI.Rows), len(base.Rows), len(sorted))
			}
			for i := 1; i < len(withPI.Rows); i++ {
				if withPI.Rows[i-1][0].I64 > withPI.Rows[i][0].I64 {
					t.Fatalf("output not sorted at %d", i)
				}
			}
			// Same multiset: compare against baseline values positionally
			// (both sorted ascending).
			for i := range withPI.Rows {
				if withPI.Rows[i][0].I64 != base.Rows[i][0].I64 {
					t.Fatalf("value mismatch at %d: %d vs %d", i, withPI.Rows[i][0].I64, base.Rows[i][0].I64)
				}
			}
			exp := mustExec(t, e, "EXPLAIN "+q)
			if !strings.Contains(exp.Message, "MergeUnion") {
				t.Errorf("expected MergeUnion in plan:\n%s", exp.Message)
			}
		})
	}
}

func TestPatchIndexJoinRewriteMatchesBaseline(t *testing.T) {
	e := newTestEngine(t)
	// Dimension table: sorted primary key.
	mustExec(t, e, "CREATE TABLE dim (pk BIGINT, label VARCHAR) SORTKEY pk")
	dimN := 500
	pk := vector.New(vector.Int64, dimN)
	lbl := vector.New(vector.String, dimN)
	for i := 0; i < dimN; i++ {
		pk.AppendInt64(int64(i))
		lbl.AppendString(fmt.Sprintf("label-%04d", i))
	}
	if err := e.LoadColumns("dim", 0, []*vector.Vector{pk, lbl}); err != nil {
		t.Fatal(err)
	}
	// Fact table: nearly sorted foreign key.
	mustExec(t, e, "CREATE TABLE fact (fk BIGINT, qty BIGINT) PARTITIONS 2")
	rng := rand.New(rand.NewSource(3))
	factN := 20000
	var total int64
	for p := 0; p < 2; p++ {
		fk := vector.New(vector.Int64, factN/2)
		qty := vector.New(vector.Int64, factN/2)
		for i := 0; i < factN/2; i++ {
			v := int64(i * dimN / (factN / 2))
			if rng.Float64() < 0.05 {
				v = rng.Int63n(int64(dimN))
			}
			fk.AppendInt64(v)
			qty.AppendInt64(int64(i % 7))
			total++
		}
		if err := e.LoadColumns("fact", p, []*vector.Vector{fk, qty}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, "CREATE PATCHINDEX ON fact(fk) SORTED THRESHOLD 0.5")

	q := "SELECT COUNT(*) AS n, SUM(qty) AS total FROM dim JOIN fact ON dim.pk = fact.fk"
	withPI := mustExec(t, e, q)
	base, err := e.ExecWith(q, ExecOptions{DisablePatchRewrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if withPI.Rows[0][0].I64 != base.Rows[0][0].I64 || withPI.Rows[0][1].I64 != base.Rows[0][1].I64 {
		t.Fatalf("join results differ: with=%v base=%v", withPI.Rows[0], base.Rows[0])
	}
	if withPI.Rows[0][0].I64 != int64(factN) {
		t.Fatalf("expected every fact row to join: got %d want %d", withPI.Rows[0][0].I64, factN)
	}
	exp := mustExec(t, e, "EXPLAIN "+q)
	if !strings.Contains(exp.Message, "MergeJoin") {
		t.Errorf("expected MergeJoin in plan:\n%s", exp.Message)
	}
}

// TestWALRecovery: a durable engine that never checkpointed restores its
// table and the surviving index definitions from the WAL alone, without the
// data being reloaded by hand.
func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()

	e1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	loadExceptionTable(t, e1, "data", 5000, 2, 0.05, 11)
	mustExec(t, e1, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5")
	mustExec(t, e1, "CREATE PATCHINDEX ON data(s) SORTED THRESHOLD 0.5")
	mustExec(t, e1, "DROP PATCHINDEX ON data(s)")
	card := e1.Catalog().Index("data", "u").Cardinality()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	ix := e2.Catalog().Index("data", "u")
	if ix == nil {
		t.Fatal("index on u not recovered")
	}
	if ix.Cardinality() != card {
		t.Errorf("recovered cardinality %d, want %d", ix.Cardinality(), card)
	}
	if e2.Catalog().Index("data", "s") != nil {
		t.Error("dropped index on s should not be recovered")
	}
	if n := mustExec(t, e2, "SELECT COUNT(*) FROM data").Rows[0][0].I64; n != 5000 {
		t.Errorf("recovered %d rows, want 5000", n)
	}
}

// nscConstraint exposes the NSC constant to tests in other files without an
// extra import of internal/patch at each site.
func nscConstraint() patch.Constraint { return patch.NearlySorted }

// TestDrainWithRunsExecLifecycle: DrainWith accounts for a statement
// exactly as Exec does, a failed one included: the statement counter, the
// latency histogram, the queries counter and the workload profile.
func TestDrainWithRunsExecLifecycle(t *testing.T) {
	type tally struct{ statements, queries, latencies, profiled, errors int64 }
	read := func(e *Engine) tally {
		snap := e.Metrics().Snapshot()
		tl := tally{
			statements: snap.Counters["statements_total"],
			queries:    snap.Counters["queries_total"],
			latencies:  snap.Histograms["query_nanos"].Count,
		}
		for _, st := range e.Profiler().Snapshot().Statements {
			tl.profiled += st.Count
			tl.errors += st.Errors
		}
		return tl
	}
	const good, bad = "SELECT COUNT(*) FROM data", "SELECT nosuch FROM data"
	run := func(drain bool) tally {
		e, err := New(Config{WorkloadProfile: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		loadExceptionTable(t, e, "data", 1000, 2, 0.05, 1)
		before := read(e)
		for _, q := range []string{good, bad} {
			if drain {
				_, err = e.DrainWith(q, ExecOptions{})
			} else {
				_, err = e.Exec(q)
			}
			if (err != nil) != (q == bad) {
				t.Fatalf("drain=%v %s: err = %v", drain, q, err)
			}
		}
		after := read(e)
		return tally{after.statements - before.statements, after.queries - before.queries,
			after.latencies - before.latencies, after.profiled - before.profiled, after.errors - before.errors}
	}
	exec, drain := run(false), run(true)
	if want := (tally{2, 1, 2, 2, 1}); exec != want {
		t.Fatalf("Exec of one good and one failing statement: %+v, want %+v", exec, want)
	}
	if drain != exec {
		t.Fatalf("DrainWith accounts %+v, Exec %+v", drain, exec)
	}
}

// TestSortKeyRejectsUnsortedAppend: a SORTKEY is a claim the planner trusts
// (a scan of the table feeds a MergeJoin unsorted), so a write that would
// break it fails with a *SortKeyError and stores nothing in that partition.
func TestSortKeyRejectsUnsortedAppend(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE d (dk BIGINT) PARTITIONS 1 SORTKEY dk")
	mustExec(t, e, "CREATE TABLE f (fk BIGINT) PARTITIONS 1")
	count := func(q string) int64 {
		t.Helper()
		return mustExec(t, e, q).Rows[0][0].I64
	}
	reject := func(q string, row int, val vector.Value) {
		t.Helper()
		before := count("SELECT COUNT(*) FROM d")
		_, err := e.Exec(q)
		var ske *SortKeyError
		if !errors.As(err, &ske) || ske.Table != "d" || ske.Column != "dk" || ske.Partition != 0 || ske.Row != row || ske.Value != val {
			t.Fatalf("%s: err = %v, want a *SortKeyError at row %d value %v", q, err, row, val)
		}
		if after := count("SELECT COUNT(*) FROM d"); after != before {
			t.Fatalf("%s: rejected write stored %d rows", q, after-before)
		}
	}
	reject("INSERT INTO d VALUES (5), (1), (3), (2), (4)", 1, vector.IntValue(1))
	mustExec(t, e, "INSERT INTO d VALUES (NULL), (1), (2), (3)")
	reject("INSERT INTO d VALUES (2)", 4, vector.IntValue(2))                // below the partition's last key
	reject("INSERT INTO d VALUES (NULL)", 4, vector.NullValue(vector.Int64)) // NULLs sort first
	mustExec(t, e, "INSERT INTO d VALUES (3), (4), (5)")                     // equal keys keep the order

	// The reproduction that used to fail with "MergeJoin: merge join input
	// not sorted within batch": the NSC rewrite joins d by merge.
	mustExec(t, e, "INSERT INTO f VALUES (1), (2), (3), (4), (5), (2)")
	mustExec(t, e, "CREATE PATCHINDEX ON f(fk) SORTED THRESHOLD 0.5")
	if got := count("SELECT COUNT(*) FROM d JOIN f ON dk = fk"); got != 7 {
		t.Fatalf("join count = %d, want 7", got)
	}
}
