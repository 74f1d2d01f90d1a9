package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/server/protocol"
)

// newTestEngine builds an empty engine.
func newTestEngine(t *testing.T) *patchindex.Engine {
	t.Helper()
	eng, err := patchindex.New(patchindex.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// startServer starts a server on a random port and registers a shutdown
// cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return startHooked(t, cfg, nil)
}

// startHooked is startServer with a beforeExec hook, set before any session
// can read it.
func startHooked(t *testing.T, cfg Config, hook func(ctx context.Context, sql string)) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Engine == nil {
		cfg.Engine = newTestEngine(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.beforeExec = hook
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// dial connects a test client with a close cleanup.
func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// loadBigTable adds a table large enough that aggregating it takes real
// time, for timeout/cancellation tests.
func loadBigTable(t *testing.T, eng *patchindex.Engine, rows int) {
	t.Helper()
	tab, err := datagen.LoadCustom("data", rows, 4, 0.05, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Catalog().AddTable(tab); err != nil {
		t.Fatal(err)
	}
}

// slowQuery self-joins the big table: a few hundred milliseconds of work,
// so timeouts and cancels reliably land mid-execution.
const slowQuery = "SELECT COUNT(*) FROM data a JOIN data b ON a.u = b.u"

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServerBasicQueryAndSettings(t *testing.T) {
	s := startServer(t, Config{})
	c := dial(t, s)
	if c.SessionID() == 0 {
		t.Fatal("expected a nonzero session id in the hello")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("CREATE TABLE emp (id BIGINT, name VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("INSERT INTO emp VALUES (1, 'ann'), (2, 'bob'), (3, 'cy'), (4, 'dee'), (5, 'eli')"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT id, name FROM emp ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.Rows[0][1] != "ann" || res.Rows[4][0] != "5" {
		t.Fatalf("unexpected result: %+v", res.Rows)
	}

	// max_rows clips and flags truncation.
	if err := c.Set(map[string]string{"max_rows": "2"}); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query("SELECT id FROM emp ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !res.Truncated {
		t.Fatalf("max_rows: want 2 truncated rows, got %d (truncated=%v)", len(res.Rows), res.Truncated)
	}

	// Bad settings are rejected.
	if err := c.Set(map[string]string{"no_such": "1"}); err == nil {
		t.Fatal("expected an error for an unknown setting")
	}
	if err := c.Set(map[string]string{"timeout_ms": "nope"}); err == nil {
		t.Fatal("expected an error for a malformed timeout_ms")
	}

	// A parse error comes back coded "error", and the session survives it.
	if _, err := c.Query("SELEKT 1"); err == nil {
		t.Fatal("expected a parse error")
	} else {
		var se *ServerError
		if !errors.As(err, &se) || se.Code != protocol.CodeError {
			t.Fatalf("want ServerError with code error, got %v", err)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session died after statement error: %v", err)
	}

	// Server-side metrics include our session and query counters. SHOW is
	// an ordinary statement, so it needs the max_rows clip lifted.
	if err := c.Set(map[string]string{"max_rows": "0"}); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query("SHOW METRICS")
	if err != nil {
		t.Fatal(err)
	}
	text := fmt.Sprint(res.Rows)
	for _, want := range []string{"server_sessions_total", "server_queries_total", "statements_total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("SHOW METRICS missing %q:\n%s", want, text)
		}
	}
}

// TestServerStatementCache checks repeated statements hit the session cache.
func TestServerStatementCache(t *testing.T) {
	s := startServer(t, Config{})
	c := dial(t, s)
	if _, err := c.Query("CREATE TABLE n (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Query("SELECT COUNT(*) FROM n"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.mCacheHits.Value(); got != 2 {
		t.Fatalf("statement cache hits: want 2, got %d", got)
	}
}

// TestServerParallelismSetting checks the `parallelism` session setting is
// applied per statement: with it set above 1 the plan gains an Exchange, and
// resetting it to 1 (or 0 on a serial engine default) restores serial plans.
func TestServerParallelismSetting(t *testing.T) {
	eng := newTestEngine(t)
	loadBigTable(t, eng, 20000)
	s := startServer(t, Config{Engine: eng})
	c := dial(t, s)

	serial, err := c.Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM data WHERE u > 100")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(serial.Message, "Exchange(") || strings.Contains(serial.Message, "ParallelAgg(") {
		t.Fatalf("engine default should plan serially:\n%s", serial.Message)
	}

	if err := c.Set(map[string]string{"parallelism": "4"}); err != nil {
		t.Fatal(err)
	}
	par, err := c.Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM data WHERE u > 100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(par.Message, "ParallelAgg(") && !strings.Contains(par.Message, "Exchange(") {
		t.Fatalf("parallelism=4 did not parallelize the plan:\n%s", par.Message)
	}
	// Parallel execution returns the same answer as serial.
	want, err := c.Query("SELECT COUNT(*) FROM data WHERE u > 100")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(map[string]string{"parallelism": "1"}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query("SELECT COUNT(*) FROM data WHERE u > 100")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want.Rows) != fmt.Sprint(got.Rows) {
		t.Fatalf("parallel %v != serial %v", want.Rows, got.Rows)
	}

	if err := c.Set(map[string]string{"parallelism": "-2"}); err == nil {
		t.Fatal("negative parallelism must be rejected")
	}
}

// TestServerConcurrentOracle runs scripted workloads through N concurrent
// clients (each on a private table) and compares every query result against
// a serial replay on a fresh engine.
func TestServerConcurrentOracle(t *testing.T) {
	const clients = 8
	const rows = 200
	s := startServer(t, Config{})

	script := func(i int) []string {
		tbl := fmt.Sprintf("t%d", i)
		stmts := []string{
			fmt.Sprintf("CREATE TABLE %s (k BIGINT, v BIGINT) PARTITIONS 2", tbl),
		}
		for r := 0; r < rows; r += 10 {
			var vals []string
			for j := r; j < r+10; j++ {
				vals = append(vals, fmt.Sprintf("(%d, %d)", j, j*i))
			}
			stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES %s", tbl, strings.Join(vals, ", ")))
		}
		stmts = append(stmts,
			fmt.Sprintf("CREATE PATCHINDEX ON %s(k) UNIQUE THRESHOLD 0.5", tbl),
			fmt.Sprintf("SELECT COUNT(*), SUM(v) FROM %s", tbl),
			fmt.Sprintf("SELECT COUNT(DISTINCT k) FROM %s", tbl),
		)
		return stmts
	}

	// Concurrent run through the server.
	results := make([][][]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer c.Close()
			for _, stmt := range script(i) {
				res, err := c.Query(stmt)
				if err != nil {
					t.Errorf("client %d: %q: %v", i, stmt, err)
					return
				}
				if len(res.Rows) > 0 {
					results[i] = append(results[i], res.Rows...)
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Serial oracle on a fresh engine.
	oracle := newTestEngine(t)
	for i := 0; i < clients; i++ {
		var want [][]string
		for _, stmt := range script(i) {
			res, err := oracle.Exec(stmt)
			if err != nil {
				t.Fatalf("oracle %d: %q: %v", i, stmt, err)
			}
			for _, row := range res.Rows {
				cells := make([]string, len(row))
				for j, v := range row {
					cells[j] = v.String()
				}
				want = append(want, cells)
			}
		}
		if fmt.Sprint(results[i]) != fmt.Sprint(want) {
			t.Fatalf("client %d diverged from serial oracle:\n got %v\nwant %v", i, results[i], want)
		}
	}
}

// TestServerStressSharedTable is the -race stress: 8 concurrent clients
// hammer one shared table with a mix of INSERT, SELECT, CREATE/DROP
// PATCHINDEX, and SHOW; the final row count must equal the successful
// inserts.
func TestServerStressSharedTable(t *testing.T) {
	s := startServer(t, Config{QueueDepth: 1024})
	setup := dial(t, s)
	if _, err := setup.Query("CREATE TABLE shared (k BIGINT, v BIGINT) PARTITIONS 2"); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const iters = 25
	var inserted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Errorf("client %d: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0, 1: // writers
					k := w*iters + i
					if _, err := c.Query(fmt.Sprintf("INSERT INTO shared VALUES (%d, %d)", k, k)); err != nil {
						if errors.Is(err, ErrServerBusy) {
							continue // shed under load: acceptable, not counted
						}
						t.Errorf("insert: %v", err)
						return
					}
					inserted.Add(1)
				case 2: // reader
					if _, err := c.Query("SELECT COUNT(*), SUM(v) FROM shared"); err != nil && !errors.Is(err, ErrServerBusy) {
						t.Errorf("select: %v", err)
						return
					}
				case 3: // DDL churn + metadata
					if _, err := c.Query("CREATE PATCHINDEX ON shared(k) UNIQUE THRESHOLD 0.9"); err == nil {
						if _, err := c.Query("DROP PATCHINDEX ON shared(k)"); err != nil &&
							!strings.Contains(err.Error(), "no patchindex") && !errors.Is(err, ErrServerBusy) {
							t.Errorf("drop: %v", err)
							return
						}
					} else if !strings.Contains(err.Error(), "already exists") && !errors.Is(err, ErrServerBusy) {
						t.Errorf("create index: %v", err)
						return
					}
					if _, err := c.Query("SHOW PATCHINDEXES"); err != nil && !errors.Is(err, ErrServerBusy) {
						t.Errorf("show: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	res, err := setup.Query("SELECT COUNT(*) FROM shared")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(inserted.Load())
	if res.Rows[0][0] != want {
		t.Fatalf("final count: want %s, got %s", want, res.Rows[0][0])
	}
}

// TestServerTimeoutCancelsMidQuery sets a tiny session timeout on a query
// that normally takes much longer, expects a prompt "timeout" error, and
// checks the session and server stay fully usable afterwards.
func TestServerTimeoutCancelsMidQuery(t *testing.T) {
	eng := newTestEngine(t)
	loadBigTable(t, eng, 1_000_000)
	s := startServer(t, Config{Engine: eng})
	c := dial(t, s)

	// Baseline: how long the query takes to completion.
	start := time.Now()
	if _, err := c.Query(slowQuery); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)

	if err := c.Set(map[string]string{"timeout_ms": "1"}); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	_, err := c.Query(slowQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	var se *ServerError
	if !errors.As(err, &se) || se.Code != protocol.CodeTimeout {
		t.Fatalf("want wire code %q, got %v", protocol.CodeTimeout, err)
	}
	// The cancellation must interrupt execution, not wait for completion.
	// (Generous margin: parallel test packages can starve this process.)
	if baseline > 200*time.Millisecond && elapsed > baseline*3/4 {
		t.Fatalf("timeout did not interrupt execution: baseline %v, aborted run took %v", baseline, elapsed)
	}
	if got := s.mTimeouts.Value(); got == 0 {
		t.Fatal("server_queries_timeout_total not incremented")
	}

	// Session recovers: clear the timeout and run the query to completion.
	if err := c.Set(map[string]string{"timeout_ms": "0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(slowQuery); err != nil {
		t.Fatalf("server unhealthy after timeout: %v", err)
	}
}

// TestServerCancelRequest cancels an in-flight query from the client side
// (QueryContext deadline → wire cancel request) and checks the "canceled"
// response plus continued session health.
func TestServerCancelRequest(t *testing.T) {
	eng := newTestEngine(t)
	loadBigTable(t, eng, 500_000)
	s := startServer(t, Config{Engine: eng})
	c := dial(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := c.QueryContext(ctx, slowQuery)
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want canceled/timeout, got %v", err)
	}
	if got := s.mCanceled.Value() + s.mTimeouts.Value(); got == 0 {
		t.Fatal("no cancellation recorded in server metrics")
	}
	if _, err := c.Query("SHOW TABLES"); err != nil {
		t.Fatalf("session unusable after cancel: %v", err)
	}
}

// TestServerDisconnectCancelsQuery drops the TCP connection mid-query and
// checks the server cancels the execution (in-flight count returns to zero)
// and keeps serving other clients.
func TestServerDisconnectCancelsQuery(t *testing.T) {
	eng := newTestEngine(t)
	loadBigTable(t, eng, 500_000)
	s := startServer(t, Config{Engine: eng})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(protocol.Magic)); err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.NewReader(conn).ReadResponse(); err != nil { // hello
		t.Fatal(err)
	}
	if err := protocol.NewWriter(conn).WriteRequest(&protocol.Request{ID: 1, Type: protocol.TypeQuery, SQL: slowQuery}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "query to start", func() bool { return s.inFlight.Load() > 0 })
	conn.Close()
	waitFor(t, "query to be cancelled after disconnect", func() bool { return s.inFlight.Load() == 0 })

	c := dial(t, s)
	if _, err := c.Query("SHOW TABLES"); err != nil {
		t.Fatalf("server unhealthy after client disconnect: %v", err)
	}
}

// TestServerAdmissionControl saturates a MaxConcurrent=1, QueueDepth=1
// server and checks excess queries are shed with the "busy" code while
// admitted ones still succeed.
func TestServerAdmissionControl(t *testing.T) {
	eng := newTestEngine(t)
	loadBigTable(t, eng, 500_000)
	s := startServer(t, Config{Engine: eng, MaxConcurrent: 1, QueueDepth: 1})

	holder := dial(t, s)
	holdDone := make(chan error, 1)
	go func() {
		_, err := holder.Query(slowQuery)
		holdDone <- err
	}()
	waitFor(t, "slot holder to start", func() bool { return s.inFlight.Load() > 0 })

	const n = 4
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Query("SHOW TABLES")
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var busy, ok int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrServerBusy):
			busy++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if busy == 0 {
		t.Fatalf("expected load shedding with 1 slot + 1 queue, got ok=%d busy=%d", ok, busy)
	}
	if err := <-holdDone; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	if s.mShed.Value() == 0 {
		t.Fatal("server_queries_shed_total not incremented")
	}
	// Once the slot frees up, new queries are admitted again.
	c := dial(t, s)
	if _, err := c.Query("SHOW TABLES"); err != nil {
		t.Fatalf("server still shedding after load dropped: %v", err)
	}
}

// TestServerGracefulShutdown starts a query, shuts the server down, and
// checks the query drains to completion while new connections are refused.
func TestServerGracefulShutdown(t *testing.T) {
	eng := newTestEngine(t)
	loadBigTable(t, eng, 500_000)
	s := startServer(t, Config{Engine: eng})

	c := dial(t, s)
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(slowQuery)
		done <- err
	}()
	waitFor(t, "query to start", func() bool { return s.inFlight.Load() > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight query was not drained: %v", err)
	}
	if _, err := Dial(s.Addr()); err == nil {
		t.Fatal("expected new connections to be refused after shutdown")
	}
}

// TestServerHTTPEndpoints exercises /healthz, /metrics, and /stats on the
// same port as the wire protocol.
func TestServerHTTPEndpoints(t *testing.T) {
	s := startServer(t, Config{})
	c := dial(t, s)
	if _, err := c.Query("CREATE TABLE h (v BIGINT)"); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body = get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "server_sessions_total") || !strings.Contains(body, "statements_total") {
		t.Fatalf("metrics: %d %s", code, body)
	}
	code, body = get("/stats")
	if code != http.StatusOK || !strings.Contains(body, "server_sessions_total") {
		t.Fatalf("stats: %d %s", code, body)
	}
}

// TestServerNoGoroutineLeaks opens and closes many sessions (some with
// in-flight work) and checks the goroutine count returns to its baseline.
func TestServerNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := newTestEngine(t)
	s := startServer(t, Config{Engine: eng})
	for i := 0; i < 10; i++ {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query("SHOW TABLES"); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}
