package patchindex

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patchindex/internal/morsel"
	"patchindex/internal/vector"
)

// TestEngineConcurrentMixedWorkload hammers one Engine from many goroutines
// with a mix of INSERT, SELECT, CREATE/DROP PATCHINDEX, and SHOW — the
// table-latching contract says this must be linearizable and race-free (run
// with -race). The final row count must equal the seeded rows plus every
// successful insert.
func TestEngineConcurrentMixedWorkload(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE kv (k BIGINT, v BIGINT) PARTITIONS 2")
	const seed = 64
	for i := 0; i < seed; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
	}

	const workers = 8
	const iters = 30
	var inserted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0: // writer
					k := int64(1000 + w*iters + i)
					if _, err := e.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", k, k)); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					inserted.Add(1)
				case 1: // reader
					if _, err := e.Exec("SELECT COUNT(*), SUM(v) FROM kv"); err != nil {
						t.Errorf("select: %v", err)
						return
					}
				case 2: // DDL churn: create/drop an index under writes
					_, err := e.Exec("CREATE PATCHINDEX ON kv(k) UNIQUE THRESHOLD 0.9")
					if err == nil {
						_, err = e.Exec("DROP PATCHINDEX ON kv(k)")
					}
					if err != nil && !strings.Contains(err.Error(), "already exists") &&
						!strings.Contains(err.Error(), "no patchindex") {
						t.Errorf("ddl: %v", err)
						return
					}
				case 3: // metadata readers
					if _, err := e.Exec("SHOW PATCHINDEXES"); err != nil {
						t.Errorf("show: %v", err)
						return
					}
					if _, err := e.Exec("SHOW TABLES"); err != nil {
						t.Errorf("show tables: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	res := mustExec(t, e, "SELECT COUNT(*) FROM kv")
	want := int64(seed) + inserted.Load()
	if got := res.Rows[0][0].I64; got != want {
		t.Fatalf("final count: want %d (seed %d + %d inserts), got %d", want, seed, inserted.Load(), got)
	}
}

// TestPreparedReusedConcurrently executes one prepared statement from many
// goroutines at once; Prepared must be immutable and safe to share.
func TestPreparedReusedConcurrently(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE nums (n BIGINT)")
	mustExec(t, e, "INSERT INTO nums VALUES (1), (2), (3), (4), (5)")
	p, err := e.Prepare("SELECT SUM(n) FROM nums")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				res, err := e.ExecPrepared(p)
				if err != nil {
					t.Errorf("exec prepared: %v", err)
					return
				}
				if res.Rows[0][0].I64 != 15 {
					t.Errorf("sum: want 15, got %v", res.Rows[0][0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShowPatchindexesDeterministic creates indexes in scrambled order and
// checks SHOW PATCHINDEXES renders them in sorted (table, column) order,
// identically across repeated runs.
func TestShowPatchindexesDeterministic(t *testing.T) {
	e := newTestEngine(t)
	for _, tbl := range []string{"zeta", "alpha", "mid"} {
		mustExec(t, e, fmt.Sprintf("CREATE TABLE %s (b BIGINT, a BIGINT)", tbl))
		mustExec(t, e, fmt.Sprintf("INSERT INTO %s VALUES (1, 1), (2, 2)", tbl))
		mustExec(t, e, fmt.Sprintf("CREATE PATCHINDEX ON %s(b) UNIQUE THRESHOLD 0.9", tbl))
		mustExec(t, e, fmt.Sprintf("CREATE PATCHINDEX ON %s(a) SORTED THRESHOLD 0.9", tbl))
	}
	first := mustExec(t, e, "SHOW PATCHINDEXES")
	if len(first.Rows) != 6 {
		t.Fatalf("expected 6 index rows, got %d", len(first.Rows))
	}
	var keys []string
	for _, row := range first.Rows {
		keys = append(keys, row[0].Str+"."+row[1].Str)
	}
	want := []string{"alpha.a", "alpha.b", "mid.a", "mid.b", "zeta.a", "zeta.b"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("SHOW PATCHINDEXES order: want %v, got %v", want, keys)
	}
	for i := 0; i < 3; i++ {
		again := mustExec(t, e, "SHOW PATCHINDEXES")
		if !reflect.DeepEqual(render(again.Rows), render(first.Rows)) {
			t.Fatalf("run %d differs from first:\n%v\nvs\n%v", i, again.Rows, first.Rows)
		}
	}
}

// render stringifies rows for comparison.
func render(rows [][]vector.Value) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			out[i][j] = v.String()
		}
	}
	return out
}

// TestExecContextCanceled checks an already-canceled context fails fast with
// context.Canceled and leaves the engine usable.
func TestExecContextCanceled(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE c (n BIGINT)")
	mustExec(t, e, "INSERT INTO c VALUES (1), (2)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecContext(ctx, "SELECT COUNT(*) FROM c"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM c")
	if res.Rows[0][0].I64 != 2 {
		t.Fatalf("engine unusable after canceled query: %v", res.Rows)
	}
}

// TestStatementPanicReleasesLatches: a panic inside a statement fails that
// statement alone with an *InternalError and releases its latches, so the
// next writer of the table is not blocked and sees a working engine.
func TestStatementPanicReleasesLatches(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (v BIGINT)")
	const boom = "SELECT v FROM t"
	e.beforeRun = func(query string) {
		if query == boom {
			panic("test panic")
		}
	}
	_, err := e.Exec(boom)
	var ie *morsel.InternalError
	if !errors.As(err, &ie) || ie.Value != "test panic" || !strings.Contains(string(ie.Stack), "TestStatementPanicReleasesLatches") {
		t.Fatalf("panicking SELECT returned %v, want an *InternalError with the panic's stack", err)
	}
	if got := e.Metrics().Counter("engine_statement_panics_total").Value(); got != 1 {
		t.Fatalf("engine_statement_panics_total = %d, want 1", got)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Exec("INSERT INTO t VALUES (1)")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("INSERT still blocked after 1s: the panicking SELECT kept its latch on t")
	}
	if res := mustExec(t, e, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I64 != 1 {
		t.Fatalf("COUNT(*) after the INSERT = %v, want 1", res.Rows)
	}
}
