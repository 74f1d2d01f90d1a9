package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"patchindex/internal/server/protocol"
)

// blockSQL is the statement the blocking hooks below hold until released.
const blockSQL = "SELECT COUNT(*) FROM b"

// blockUntil returns a beforeExec hook that holds blockSQL until release is
// closed or the statement's context ends, and reports on started that it is
// holding one.
func blockUntil(release <-chan struct{}, started chan<- struct{}) func(context.Context, string) {
	return func(ctx context.Context, sql string) {
		if sql != blockSQL {
			return
		}
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
	}
}

// rawSession opens a protocol connection without the Client, so a test can
// send requests the Client would not (several at once, a bare cancel).
func rawSession(t *testing.T, s *Server) (*protocol.Reader, *protocol.Writer) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(protocol.Magic)); err != nil {
		t.Fatal(err)
	}
	rd := protocol.NewReader(bufio.NewReader(conn))
	if _, err := rd.ReadResponse(); err != nil { // hello
		t.Fatal(err)
	}
	return rd, protocol.NewWriter(conn)
}

// TestSessionCancelBehindQueuedPing: a ping sent during a statement waits
// for it, but a cancel sent behind that ping still reaches the statement,
// and the ping is answered after the statement's own response.
func TestSessionCancelBehindQueuedPing(t *testing.T) {
	started := make(chan struct{}, 1)
	s := startHooked(t, Config{}, blockUntil(nil, started))
	if _, err := s.eng.Exec("CREATE TABLE b (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.eng.Exec("INSERT INTO b VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	rd, w := rawSession(t, s)
	for _, req := range []*protocol.Request{
		{ID: 1, Type: protocol.TypeQuery, SQL: blockSQL},
		{ID: 2, Type: protocol.TypePing},
	} {
		if err := w.WriteRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	if err := w.WriteRequest(&protocol.Request{ID: 3, Type: protocol.TypeCancel, CancelID: 1}); err != nil {
		t.Fatal(err)
	}
	var order []uint64
	got := map[uint64]*protocol.Response{}
	for len(got) < 3 {
		resp, err := rd.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, resp.ID)
		got[resp.ID] = resp
	}
	if got[3].Message != "cancel requested" {
		t.Fatalf("cancel answered %+v", got[3])
	}
	if got[1].Code != protocol.CodeCanceled {
		t.Fatalf("statement answered %+v, want code %q", got[1], protocol.CodeCanceled)
	}
	if got[2].Message != "pong" || order[len(order)-1] != 2 {
		t.Fatalf("ping must be answered last, after the statement: order %v, ping %+v", order, got[2])
	}
	// With nothing in flight, a cancel says so.
	if err := w.WriteRequest(&protocol.Request{ID: 4, Type: protocol.TypeCancel, CancelID: 9}); err != nil {
		t.Fatal(err)
	}
	if resp, err := rd.ReadResponse(); err != nil || resp.ID != 4 || resp.Message != "no query in flight" {
		t.Fatalf("idle cancel = %+v, %v", resp, err)
	}
}

// TestSessionRejectsOldMagic: a client of the retired protocol version is
// closed at the handshake, and is not handed to HTTP either.
func TestSessionRejectsOldMagic(t *testing.T) {
	s := startServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("PIDX1\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if n != 0 || err == nil || isTimeout(err) {
		t.Fatalf("old-magic client read %q, %v; want the connection closed without a reply", buf[:n], err)
	}
	if got := s.mHTTPRequests.Value(); got != 0 {
		t.Fatalf("old-magic client reached HTTP (%d requests)", got)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestSessionNoGoroutinePerStatement: while a statement is blocked, neither
// the server nor the client runs a goroutine for it; the only new one is
// the test's own caller.
func TestSessionNoGoroutinePerStatement(t *testing.T) {
	release, started := make(chan struct{}), make(chan struct{}, 1)
	s := startHooked(t, Config{}, blockUntil(release, started))
	c := dial(t, s)
	if _, err := c.Query("CREATE TABLE b (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(*) FROM b WHERE v = 1"); err != nil { // warm the path once
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.QueryContext(ctx, blockSQL)
		done <- err
	}()
	<-started
	if got := runtime.NumGoroutine(); got > before+1 {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines during a statement, want at most %d (the caller):\n%s",
			got, before+1, buf[:runtime.Stack(buf, true)])
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSessionPanicBarrier: a statement that panics on the session goroutine
// fails alone with an internal error; the session, admission and goroutines
// all come back.
func TestSessionPanicBarrier(t *testing.T) {
	const boom = "SELECT COUNT(*) FROM p WHERE v = 7"
	before := runtime.NumGoroutine()
	s := startHooked(t, Config{}, func(_ context.Context, sql string) {
		if sql == boom {
			panic("test panic")
		}
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("CREATE TABLE p (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(boom)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != protocol.CodeError || !strings.Contains(se.Msg, "internal error: test panic") {
		t.Fatalf("panicking statement returned %v, want an internal error", err)
	}
	if got := s.mPanics.Value(); got != 1 {
		t.Fatalf("server_statement_panics_total = %d, want 1", got)
	}
	if res, err := c.Query("SELECT COUNT(*) FROM p"); err != nil || res.Rows[0][0] != "0" {
		t.Fatalf("next statement on the same session: %v, %v", res, err)
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Fatalf("in flight after the panic: %d", got)
	}
	if got := len(s.sem); got != 0 {
		t.Fatalf("admission slots held after the panic: %d", got)
	}
	c.Close()
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

// TestClientCellText pins the text of every value type as a client sees it.
func TestClientCellText(t *testing.T) {
	s := startServer(t, Config{})
	c := dial(t, s)
	for _, q := range []string{
		"CREATE TABLE c (i BIGINT, f DOUBLE, s VARCHAR, b BOOLEAN, d DATE) PARTITIONS 1",
		"INSERT INTO c VALUES (-5, 2.5, 'ann', true, DATE '1998-01-02'), (NULL, NULL, NULL, NULL, NULL), " +
			"(9007199254740993, 0.1, '', false, DATE '1970-01-01')",
	} {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	long := strings.Repeat("x", 300) // a cell whose length takes two varint bytes
	if _, err := c.Query(fmt.Sprintf("INSERT INTO c VALUES (1, -1.5, '%s', true, DATE '2024-02-29')", long)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT i, f, s, b, d FROM c")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"-5", "2.5", "ann", "true", "1998-01-02"},
		{"NULL", "NULL", "NULL", "NULL", "NULL"},
		{"9007199254740993", "0.1", "", "false", "1970-01-01"},
		{"1", "-1.5", long, "true", "2024-02-29"},
	}
	if fmt.Sprintf("%q", res.Rows) != fmt.Sprintf("%q", want) {
		t.Fatalf("cells:\n got %q\nwant %q", res.Rows, want)
	}
	if fmt.Sprint(res.Columns) != "[i f s b d]" {
		t.Fatalf("columns %v", res.Columns)
	}
	empty, err := c.Query("SELECT i FROM c WHERE i = 12345")
	if err != nil || empty.Rows != nil || len(empty.Columns) != 1 {
		t.Fatalf("empty result: %+v, %v", empty, err)
	}
}

// TestSessionCancelRightBehindQuery: a cancel lands on a query that has
// left the queue but not yet set up its context. The test holds the server
// mutex, which runQuery takes before it does, to keep the query in that
// state while its cancel arrives.
func TestSessionCancelRightBehindQuery(t *testing.T) {
	started := make(chan struct{}, 1)
	s := startHooked(t, Config{}, blockUntil(nil, started))
	if _, err := s.eng.Exec("CREATE TABLE b (v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	rd, w := rawSession(t, s)
	s.mu.Lock()
	locked := true
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	if err := w.WriteRequest(&protocol.Request{ID: 1, Type: protocol.TypeQuery, SQL: blockSQL}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the session goroutine takes the query and waits on s.mu
	if err := w.WriteRequest(&protocol.Request{ID: 2, Type: protocol.TypeCancel, CancelID: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := rd.ReadResponse()
	if err != nil || resp.ID != 2 || resp.Message != "cancel requested" {
		t.Fatalf("cancel answered %+v, %v", resp, err)
	}
	s.mu.Unlock()
	locked = false
	if resp, err = rd.ReadResponse(); err != nil || resp.ID != 1 || resp.Code != protocol.CodeCanceled {
		t.Fatalf("statement answered %+v, %v; want code %q", resp, err, protocol.CodeCanceled)
	}
}
