package patchindex

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"patchindex/internal/patch"
)

var workerLineRe = regexp.MustCompile(`\[worker (\d+)\] \(morsels=(\d+) rows=(\d+) batches=(\d+)`)
var opRowsRe = regexp.MustCompile(`rows=(\d+)`)

// TestParallelExplainAnalyzeWorkerStats asserts the observability acceptance
// criterion: a parallel plan's EXPLAIN ANALYZE carries per-worker lines whose
// row counts sum to the exchange's merged rows, and the trace of the same
// execution carries one worker[i] span per worker with identical counters.
func TestParallelExplainAnalyzeWorkerStats(t *testing.T) {
	e, err := New(Config{DefaultPartitions: 4, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	loadExceptionTable(t, e, "data", 20000, 4, 0.05, 99)

	res, err := e.ExecWith("EXPLAIN ANALYZE SELECT u FROM data WHERE payload >= 0", ExecOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "Exchange(") {
		t.Fatalf("parallel plan has no Exchange:\n%s", res.Message)
	}

	// Sum worker rows under the Exchange header line and compare with the
	// exchange's own rows= figure.
	lines := strings.Split(res.Message, "\n")
	var exchangeRows, workerRows int64
	var workerLines int
	for _, ln := range lines {
		if strings.Contains(ln, "Exchange(") {
			m := opRowsRe.FindStringSubmatch(ln)
			if m == nil {
				t.Fatalf("no rows= on exchange line %q", ln)
			}
			fmt.Sscanf(m[1], "%d", &exchangeRows)
		}
		if m := workerLineRe.FindStringSubmatch(ln); m != nil {
			var r int64
			fmt.Sscanf(m[3], "%d", &r)
			workerRows += r
			workerLines++
		}
	}
	if workerLines == 0 {
		t.Fatalf("no [worker N] lines in parallel EXPLAIN ANALYZE:\n%s", res.Message)
	}
	if workerRows != exchangeRows {
		t.Fatalf("worker rows sum %d != exchange rows %d\n%s", workerRows, exchangeRows, res.Message)
	}

	// The trace of the same execution must carry matching worker[i] spans.
	tr := e.Tracer().Get(res.TraceID)
	if tr == nil || !tr.Sampled {
		t.Fatalf("no sampled trace for %d", res.TraceID)
	}
	var spanWorkers int
	var spanRows int64
	for _, sp := range tr.Spans {
		if !strings.HasPrefix(sp.Name, "worker[") {
			continue
		}
		spanWorkers++
		parent := tr.Spans[sp.Parent]
		if !strings.HasPrefix(parent.Name, "Exchange(") {
			t.Fatalf("worker span %q parented under %q", sp.Name, parent.Name)
		}
		for _, kv := range sp.Attrs {
			if kv.Key == "rows" {
				spanRows += kv.Value
			}
		}
	}
	if spanWorkers != workerLines {
		t.Fatalf("trace has %d worker spans, EXPLAIN ANALYZE has %d worker lines", spanWorkers, workerLines)
	}
	if spanRows != exchangeRows {
		t.Fatalf("trace worker rows sum %d != exchange rows %d", spanRows, exchangeRows)
	}
}

// TestParallelAggExplainAnalyze asserts the ParallelAgg path is chosen for a
// parallel GROUP BY plan and renders its worker stats.
func TestParallelAggExplainAnalyze(t *testing.T) {
	e, err := New(Config{DefaultPartitions: 4, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	loadExceptionTable(t, e, "data", 20000, 4, 0.05, 7)

	res := mustExec(t, e, "EXPLAIN ANALYZE SELECT payload, COUNT(*) FROM data GROUP BY payload")
	if !strings.Contains(res.Message, "ParallelAgg(") {
		t.Fatalf("parallel GROUP BY did not use ParallelAgg:\n%s", res.Message)
	}
	if !workerLineRe.MatchString(res.Message) {
		t.Fatalf("no worker lines under ParallelAgg:\n%s", res.Message)
	}
}

var timeFigureRe = regexp.MustCompile(`time=[^ )]+`)

// TestParallelSerialPlanUnchanged pins the acceptance criterion that
// Parallelism=1 produces the same physical plan as the engine default
// (serial): no Exchange, no ParallelAgg, and — modulo measured wall times —
// byte-identical EXPLAIN ANALYZE output.
func TestParallelSerialPlanUnchanged(t *testing.T) {
	e := newTestEngine(t)
	loadExceptionTable(t, e, "data", 5000, 3, 0.05, 5)
	execTrailerRe := regexp.MustCompile(`rows in \S+`)
	strip := func(s string) string {
		return execTrailerRe.ReplaceAllString(timeFigureRe.ReplaceAllString(s, "time=X"), "rows in X")
	}
	for _, q := range []string{
		"EXPLAIN ANALYZE SELECT u FROM data WHERE payload > 10",
		"EXPLAIN ANALYZE SELECT payload, COUNT(*) FROM data GROUP BY payload",
		"EXPLAIN ANALYZE SELECT s FROM data ORDER BY s LIMIT 10",
	} {
		def := mustExec(t, e, q).Message
		one, err := e.ExecWith(q, ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if strip(one.Message) != strip(def) {
			t.Fatalf("%s: Parallelism=1 plan differs from default\n default:\n%s\n p=1:\n%s", q, def, one.Message)
		}
		if strings.Contains(def, "Exchange(") || strings.Contains(def, "ParallelAgg(") ||
			strings.Contains(def, "[worker") {
			t.Fatalf("%s: serial plan contains a parallel operator:\n%s", q, def)
		}
	}
}

// TestParallelQueryCancellation cancels a parallel query mid-flight; the
// statement must return the context error without leaking workers (the -race
// run and the engine Close in cleanup would catch stragglers).
func TestParallelQueryCancellation(t *testing.T) {
	e, err := New(Config{DefaultPartitions: 4, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	loadExceptionTable(t, e, "data", 50000, 4, 0.05, 31)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every worker must stop within one batch
	_, err = e.ExecWithContext(ctx, "SELECT COUNT(DISTINCT u) FROM data", ExecOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelMixedWorkloadStress mixes parallel SELECTs with concurrent
// INSERTs and CREATE PATCHINDEX under the engine's latch contract. Run under
// -race in CI; here it also sanity-checks that every query either succeeds or
// fails with a latch/cancellation-free error.
func TestParallelMixedWorkloadStress(t *testing.T) {
	e, err := New(Config{DefaultPartitions: 4, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	loadExceptionTable(t, e, "data", 20000, 4, 0.1, 17)
	mustExec(t, e, "CREATE TABLE side (v BIGINT)")

	queries := []string{
		"SELECT COUNT(DISTINCT u) FROM data",
		"SELECT payload, COUNT(*) FROM data GROUP BY payload",
		"SELECT s FROM data ORDER BY s LIMIT 100",
		"SELECT COUNT(*) FROM data WHERE u > 5000",
	}
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch {
				case w == 0 && r%3 == 0:
					if _, err := e.Exec(fmt.Sprintf("INSERT INTO side VALUES (%d)", r)); err != nil {
						t.Errorf("insert: %v", err)
					}
				case w == 1 && r%7 == 3:
					// Rebuilding the index takes the table write latch while
					// parallel SELECTs hold read latches.
					if _, err := e.Exec("CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 1.0 FORCE"); err != nil &&
						!strings.Contains(err.Error(), "already exists") {
						t.Errorf("create patchindex: %v", err)
					}
				default:
					q := queries[(w*rounds+r)%len(queries)]
					if _, err := e.Exec(q); err != nil {
						t.Errorf("%s: %v", q, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestParallelDiscoveryMatchesSerial builds the same PatchIndex serially and
// in parallel and requires identical patch sets per partition — parallel NUC
// discovery merges per-partition counts into the same global duplicate view.
func TestParallelDiscoveryMatchesSerial(t *testing.T) {
	for _, c := range []patch.Constraint{patch.NearlyUnique, patch.NearlySorted} {
		col := map[patch.Constraint]string{patch.NearlyUnique: "u", patch.NearlySorted: "s"}[c]

		build := func(par int) *patch.Index {
			t.Helper()
			eng, err := New(Config{DefaultPartitions: 4, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			loadExceptionTable(t, eng, "data", 30000, 4, 0.1, 23)
			kw := map[patch.Constraint]string{patch.NearlyUnique: "UNIQUE", patch.NearlySorted: "SORTED"}[c]
			mustExec(t, eng, fmt.Sprintf("CREATE PATCHINDEX ON data(%s) %s THRESHOLD 1.0 FORCE", col, kw))
			ix := eng.Catalog().IndexFor("data", col, c)
			if ix == nil {
				t.Fatalf("index data.%s not in catalog", col)
			}
			return ix
		}
		serial, par := build(1), build(8)
		if serial.Cardinality() != par.Cardinality() {
			t.Fatalf("%v: serial |P|=%d parallel |P|=%d", c, serial.Cardinality(), par.Cardinality())
		}
		for p := 0; p < serial.NumPartitions(); p++ {
			a, b := serial.Partition(p), par.Partition(p)
			ia, ib := a.Iter(0), b.Iter(0)
			for ia.Valid() || ib.Valid() {
				if ia.Valid() != ib.Valid() || ia.Row() != ib.Row() {
					t.Fatalf("%v: partition %d patch sets differ", c, p)
				}
				ia.Next()
				ib.Next()
			}
		}
	}
}

// TestParallelInsertVisibility: rows inserted before a parallel query are all
// seen by it (the latch contract serializes scans against appends).
func TestParallelInsertVisibility(t *testing.T) {
	e, err := New(Config{DefaultPartitions: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	mustExec(t, e, "CREATE TABLE t (v BIGINT)")
	total := 0
	for i := 0; i < 10; i++ {
		vals := make([]string, 0, 50)
		for j := 0; j < 50; j++ {
			vals = append(vals, fmt.Sprintf("(%d)", i*50+j))
		}
		mustExec(t, e, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
		total += 50
		res := mustExec(t, e, "SELECT COUNT(*) FROM t")
		if got := res.Rows[0][0].I64; got != int64(total) {
			t.Fatalf("round %d: COUNT(*) = %d, want %d", i, got, total)
		}
	}
}
