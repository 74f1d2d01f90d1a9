package patchindex

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"patchindex/internal/exec"
	"patchindex/internal/sql"
)

// opCount is what one operator of an executed tree counted, flattened in
// pre-order; worker counters are summed, since which worker drove which
// morsel varies run to run.
type opCount struct {
	name                      string
	rows, batches             int64
	wMorsels, wRows, wBatches int64
}

// opTimes walks an executed tree and returns its counts plus the names of
// the operators and workers whose Nanos is zero ("untimed") and nonzero
// ("timed"). A worker that drove no morsel did no work and is not listed.
func opTimes(root exec.Operator) (counts []opCount, untimed, timed []string) {
	var walk func(op exec.Operator)
	walk = func(op exec.Operator) {
		st := op.Stats()
		c := opCount{name: op.Name(), rows: st.Rows, batches: st.Batches}
		if st.Nanos == 0 {
			untimed = append(untimed, op.Name())
		} else {
			timed = append(timed, op.Name())
		}
		if ws, ok := op.(exec.WorkerStatser); ok {
			for i, w := range ws.WorkerStats() {
				c.wMorsels += w.Morsels
				c.wRows += w.Rows
				c.wBatches += w.Batches
				if w.Morsels == 0 {
					continue
				}
				name := fmt.Sprintf("%s/worker[%d]", op.Name(), i)
				if w.Nanos == 0 {
					untimed = append(untimed, name)
				} else {
					timed = append(timed, name)
				}
			}
		}
		counts = append(counts, c)
		for _, ch := range op.Children() {
			walk(ch)
		}
	}
	walk(root)
	return counts, untimed, timed
}

// findOp returns the first operator of the tree whose name has prefix.
func findOp(root exec.Operator, prefix string) exec.Operator {
	if strings.HasPrefix(root.Name(), prefix) {
		return root
	}
	for _, c := range root.Children() {
		if op := findOp(c, prefix); op != nil {
			return op
		}
	}
	return nil
}

// extraStat reads one ExtraStats counter of op (0 when absent).
func extraStat(op exec.Operator, key string) int64 {
	if ex, ok := op.(exec.ExtraStatser); ok {
		for _, kv := range ex.ExtraStats() {
			if kv.Key == key {
				return kv.Value
			}
		}
	}
	return 0
}

// TestOperatorTimingOnlyWhenRead: an engine statement whose operator times
// nobody reads leaves every operator's and worker's Nanos at 0, while
// counting the same rows and batches as a timed run. EXPLAIN ANALYZE, a
// detailed trace, and a plan built and drained outside the engine (the path
// a per-layer benchmark times) all time every operator and every worker.
func TestOperatorTimingOnlyWhenRead(t *testing.T) {
	spill := func(cfg Config) Config {
		cfg.SpillBytes, cfg.SpillDir = 16<<10, t.TempDir()
		return cfg
	}
	shapes := []struct {
		name  string
		cfg   Config
		query string
		// engaged checks that the executed tree took the intended shape.
		engaged func(root exec.Operator) error
	}{
		{"serial", Config{DefaultPartitions: 4},
			"SELECT COUNT(DISTINCT u) FROM data WHERE payload >= 10",
			func(root exec.Operator) error {
				if findOp(root, "PatchSelect") == nil {
					return fmt.Errorf("no PatchSelect")
				}
				return nil
			}},
		{"parallel-exchange", Config{DefaultPartitions: 4, Parallelism: 2},
			"SELECT u FROM data WHERE payload >= 10",
			func(root exec.Operator) error {
				if findOp(root, "Exchange") == nil {
					return fmt.Errorf("no Exchange")
				}
				return nil
			}},
		{"parallel-agg", Config{DefaultPartitions: 4, Parallelism: 2},
			"SELECT s, COUNT(*) FROM data WHERE payload >= 10 GROUP BY s",
			func(root exec.Operator) error {
				if findOp(root, "ParallelAgg") == nil {
					return fmt.Errorf("no ParallelAgg")
				}
				return nil
			}},
		{"spilled-sort", spill(Config{DefaultPartitions: 4}),
			"SELECT s, u FROM data ORDER BY s",
			func(root exec.Operator) error {
				if s := findOp(root, "Sort"); s == nil || extraStat(s, "spilled_runs") == 0 {
					return fmt.Errorf("no spilled Sort")
				}
				return nil
			}},
		{"grace-hashjoin", spill(Config{DefaultPartitions: 4}),
			"SELECT data.u, dim.payload FROM data JOIN dim ON data.s = dim.u",
			func(root exec.Operator) error {
				if j := findOp(root, "HashJoin"); j == nil || extraStat(j, "spilled_bytes") == 0 {
					return fmt.Errorf("no Grace HashJoin")
				}
				return nil
			}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			e, err := New(sh.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			loadExceptionTable(t, e, "data", 20000, 4, 0.05, 7)
			loadExceptionTable(t, e, "dim", 5000, 2, 0, 8)
			mustExec(t, e, "CREATE PATCHINDEX ON data(u) UNIQUE")

			var last exec.Operator
			e.executed = func(op exec.Operator) { last = op }
			run := func(how string, stmt func() error) ([]opCount, []string, []string) {
				t.Helper()
				last = nil
				if err := stmt(); err != nil {
					t.Fatalf("%s: %v", how, err)
				}
				if last == nil {
					t.Fatalf("%s: no operator tree executed", how)
				}
				if err := sh.engaged(last); err != nil {
					t.Fatalf("%s: %v:\n%s", how, err, exec.FormatStats(last))
				}
				return opTimes(last)
			}
			query := func() error { _, err := e.Query(sh.query); return err }
			drain := func() error { _, err := e.DrainWith(sh.query, ExecOptions{}); return err }

			want, untimed, timed := run("Query", query)
			if len(timed) > 0 {
				t.Errorf("untimed Query timed %v:\n%s", timed, exec.FormatStats(last))
			}
			if len(untimed) == 0 {
				t.Fatal("empty operator tree")
			}
			check := func(how string, stmt func() error, wantTimed bool) {
				t.Helper()
				got, untimed, timed := run(how, stmt)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s counts %v, untimed Query counted %v", how, got, want)
				}
				if wantTimed && len(untimed) > 0 {
					t.Errorf("%s left %v untimed:\n%s", how, untimed, exec.FormatStats(last))
				}
				if !wantTimed && len(timed) > 0 {
					t.Errorf("%s timed %v:\n%s", how, timed, exec.FormatStats(last))
				}
			}
			check("DrainWith", drain, false)
			check("EXPLAIN ANALYZE", func() error {
				_, err := e.Exec("EXPLAIN ANALYZE " + sh.query)
				return err
			}, true)
			check("forced trace", func() error {
				_, err := e.ExecWith(sh.query, ExecOptions{Trace: true})
				return err
			}, true)

			// Every statement traced, every other one detailed
			// (TraceSample: 2): the sampled-out ones stay untimed.
			e.Tracer().SetSampleEvery(2)
			e.Tracer().SetEnabled(true)
			detailed := 0
			for i := 0; i < 2; i++ {
				_, untimed, timed := run("sampled Query", query)
				switch {
				case len(untimed) == 0:
					detailed++
				case len(timed) > 0:
					t.Errorf("statement %d mixes timed %v and untimed %v operators", i, timed, untimed)
				}
			}
			if detailed != 1 {
				t.Errorf("%d of 2 statements timed at TraceSample 2, want 1", detailed)
			}
			// TraceSample: 1 details, and so times, every statement.
			e.Tracer().SetSampleEvery(1)
			check("TraceSample 1 Query", query, true)
			check("TraceSample 1 DrainWith", drain, true)
			e.Tracer().SetEnabled(false)

			// plan.Build + exec.DrainContext under a plain context times.
			check("plan.Build+DrainContext", func() error {
				stmt, err := sql.Parse(sh.query)
				if err != nil {
					return err
				}
				ctx := context.Background()
				node, err := e.planSelect(ctx, stmt.(*sql.SelectStmt), ExecOptions{})
				if err != nil {
					return err
				}
				op, err := e.buildPlan(ctx, node, ExecOptions{})
				if err != nil {
					return err
				}
				_, err = exec.DrainContext(ctx, op)
				e.noteExecuted(op)
				return err
			}, true)
		})
	}
}
