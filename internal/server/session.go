package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"patchindex"
	"patchindex/internal/server/protocol"
	"patchindex/internal/serving"
	"patchindex/internal/vector"
)

// stmtCacheCap bounds the per-session prepared-statement cache (FIFO
// eviction).
const stmtCacheCap = 64

// session is the per-connection state of one wire-protocol client. Its
// requests are handled one at a time on the session goroutine, statements
// included; a reader goroutine feeds them through a queue and handles
// cancel requests and disconnects itself, so it is never blocked behind a
// running statement.
type session struct {
	srv    *Server
	id     uint64
	w      *protocol.Writer // shared by both goroutines: one lock, one Write a message
	remote string           // client remote address, annotates traces and slow-query log

	// Settings, adjustable via "set" requests.
	timeout         time.Duration // per-query deadline; 0 = none
	maxRows         int           // result clip; 0 = unlimited
	disableRewrites bool          // run baseline plans (no PatchIndex rewrites)
	parallelism     int           // degree of parallelism; 0 = engine default, 1 = serial
	tenant          string        // QoS tenant; sessions start on the default tenant

	// Prepared-statement cache: SQL text → parsed statement, FIFO-evicted.
	cache      map[string]*patchindex.Prepared
	cacheOrder []string

	// mu guards what the reader and the session goroutine share: the
	// requests read but not yet handled (queue[head:], in arrival order),
	// whether the reader has stopped, and the statement in flight: the
	// query next last returned, until next is called again.
	mu       sync.Mutex
	queue    []queued
	head     int
	closed   bool
	running  bool               // a statement is in flight
	runID    uint64             // its id
	canceled bool               // a cancel request named it
	cancelFn context.CancelFunc // cancels it; nil until its context exists
	wake     chan struct{}      // capacity 1: the queue or closed changed
}

// queued is a request waiting for the session goroutine.
type queued struct {
	req *protocol.Request
	// canceled: a cancel request named this query before it started.
	canceled bool
}

// serveSession runs the request loop for one protocol connection. The magic
// has already been consumed from br.
func (s *Server) serveSession(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	untrack := s.track(conn)
	defer untrack()

	s.mSessions.Inc()
	s.gActiveSess.Add(1)
	defer s.gActiveSess.Add(-1)

	sess := &session{
		srv:     s,
		id:      s.nextSession.Add(1),
		w:       protocol.NewWriter(conn),
		remote:  conn.RemoteAddr().String(),
		timeout: s.cfg.DefaultTimeout,
		maxRows: s.cfg.DefaultMaxRows,
		tenant:  serving.DefaultTenant,
		cache:   map[string]*patchindex.Prepared{},
		wake:    make(chan struct{}, 1),
	}
	// Hello: tells the client its session id and tenant. Clients move to a
	// tenant with the Tenant request field or `\set tenant`.
	if !sess.write(&protocol.Response{
		SessionID: sess.id, Tenant: sess.tenant, Message: "patchindex server ready",
	}) {
		return
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		sess.read(protocol.NewReader(br))
	}()
	// Closing the connection ends the reader; the session waits for it.
	defer func() {
		conn.Close()
		<-readerDone
	}()

	for {
		q, ok := sess.next()
		if !ok || !sess.handle(q) {
			return
		}
	}
}

// read is the reader goroutine: it queues every request but a cancel,
// which it answers itself, and on a read error (the client went away)
// cancels the statement in flight and closes the queue.
func (sess *session) read(rd *protocol.Reader) {
	for {
		req, err := rd.ReadRequest()
		sess.mu.Lock()
		if err != nil {
			sess.closed = true
			if sess.cancelFn != nil {
				sess.cancelFn()
			}
			sess.mu.Unlock()
			sess.signal()
			return
		}
		sess.srv.mProtoRequests.Inc()
		if req.Type == protocol.TypeCancel {
			msg := "no query in flight"
			if sess.cancelQuery(req.CancelID) {
				msg = "cancel requested"
			}
			sess.mu.Unlock()
			sess.write(&protocol.Response{ID: req.ID, Message: msg})
			continue
		}
		sess.queue = append(sess.queue, queued{req: req})
		sess.mu.Unlock()
		sess.signal()
	}
}

// cancelQuery cancels the statement in flight, or else marks the first
// queued query, whose id is id (any id when it is 0); false when none is.
// A statement whose context does not exist yet is canceled by runQuery as
// soon as it does. sess.mu is held.
func (sess *session) cancelQuery(id uint64) bool {
	if sess.running && (id == 0 || id == sess.runID) {
		sess.canceled = true
		if sess.cancelFn != nil {
			sess.cancelFn()
		}
		return true
	}
	for i := sess.head; i < len(sess.queue); i++ {
		if q := &sess.queue[i]; q.req.Type == protocol.TypeQuery && (id == 0 || id == q.req.ID) {
			q.canceled = true
			return true
		}
	}
	return false
}

// signal wakes the session goroutine if it waits in next.
func (sess *session) signal() {
	select {
	case sess.wake <- struct{}{}:
	default:
	}
}

// next waits for the next queued request; false ends the session, because
// the client went away or the server is shutting down. The request handled
// before is no longer in flight; a query it returns is, with the cancel
// that named it while it was queued.
func (sess *session) next() (queued, bool) {
	for {
		sess.mu.Lock()
		sess.running, sess.canceled, sess.cancelFn = false, false, nil
		if sess.closed {
			sess.mu.Unlock()
			return queued{}, false
		}
		if sess.head < len(sess.queue) {
			q := sess.queue[sess.head]
			sess.queue[sess.head] = queued{}
			if sess.head++; sess.head == len(sess.queue) {
				sess.queue, sess.head = sess.queue[:0], 0
			}
			if q.req.Type == protocol.TypeQuery {
				sess.running, sess.runID, sess.canceled = true, q.req.ID, q.canceled
			}
			sess.mu.Unlock()
			return q, true
		}
		sess.mu.Unlock()
		select {
		case <-sess.wake:
		case <-sess.srv.baseCtx.Done():
			sess.write(&protocol.Response{Error: errShuttingDown.Error(), Code: protocol.CodeShutdown})
			return queued{}, false
		}
	}
}

// handle dispatches one request; false ends the session.
func (sess *session) handle(q queued) bool {
	req := q.req
	// A tenant riding any request moves the session (the wire-level
	// equivalent of `\set tenant`); a bad id fails the request.
	if req.Tenant != "" {
		if err := sess.setTenant(req.Tenant); err != nil {
			return sess.write(&protocol.Response{ID: req.ID, Error: err.Error(), Code: protocol.CodeError})
		}
	}
	switch req.Type {
	case protocol.TypeQuery:
		return sess.runQuery(req)
	case protocol.TypeSet:
		return sess.write(sess.applySettings(req))
	case protocol.TypePing:
		return sess.write(&protocol.Response{ID: req.ID, Message: "pong"})
	case protocol.TypeClose:
		sess.write(&protocol.Response{ID: req.ID, Message: "bye"})
		return false
	default:
		return sess.write(&protocol.Response{
			ID: req.ID, Error: fmt.Sprintf("unknown request type %q", req.Type), Code: protocol.CodeError,
		})
	}
}

// runQuery executes one SQL statement under admission control and the
// session's timeout. It is the statement in flight for the reader's cancel
// and disconnect handling.
func (sess *session) runQuery(req *protocol.Request) bool {
	s := sess.srv
	s.mQueries.Inc()

	s.mu.Lock()
	draining := s.draining
	if !draining {
		s.queryWG.Add(1)
	}
	s.mu.Unlock()
	if draining {
		return sess.write(&protocol.Response{
			ID: req.ID, Error: errShuttingDown.Error(), Code: protocol.CodeShutdown,
		})
	}
	// Held until the response is written, so a graceful shutdown cannot
	// close the connection between query completion and the result reaching
	// the client.
	defer s.queryWG.Done()

	var qctx context.Context
	var cancel context.CancelFunc
	if sess.timeout > 0 {
		qctx, cancel = context.WithTimeout(s.baseCtx, sess.timeout)
	} else {
		qctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	sess.mu.Lock()
	if sess.canceled || sess.closed { // named by a cancel already, or the client left
		cancel()
	}
	sess.cancelFn = cancel
	sess.mu.Unlock()

	s.inFlight.Add(1)
	s.gInFlight.Add(1)
	resp, err := sess.execute(qctx, req)
	s.inFlight.Add(-1)
	s.gInFlight.Add(-1)
	if err != nil {
		resp = errorResponse(s, req.ID, err)
	}
	return sess.write(resp)
}

// execute admits (tenant QoS first, then the global queue), prepares
// (with the session cache), and runs one query.
//
// The engine recovers its own panics into *morsel.InternalError (see
// Engine.runLatched); the recover here is the net for the server-side code
// around it (QoS, admission, render, the beforeExec hook): such a panic
// becomes an internal error for this statement alone. It is deferred first,
// so it runs after the admission and QoS releases.
func (sess *session) execute(ctx context.Context, req *protocol.Request) (resp *protocol.Response, err error) {
	s := sess.srv
	defer func() {
		if p := recover(); p != nil {
			s.mPanics.Inc()
			log.Printf("server: session %d: statement panicked: %v\n%s", sess.id, p, debug.Stack())
			resp, err = nil, fmt.Errorf("internal error: %v", p)
		}
	}()
	// Tenant QoS gates before the global queue: a rate-limited or
	// at-capacity tenant is shed immediately and never occupies a queue
	// slot another tenant could use.
	qosRelease, err := s.cfg.QoS.Admit(sess.tenant)
	if err != nil {
		return nil, err
	}
	defer qosRelease()
	release, err := s.admit(ctx, s.cfg.QoS.Priority(sess.tenant))
	if err != nil {
		if errors.Is(err, ErrServerBusy) {
			// Charge queue-level sheds to the tenant too.
			s.cfg.QoS.Shed(sess.tenant)
		}
		return nil, err
	}
	defer release()
	prep, err := sess.prepare(req.SQL)
	if err != nil {
		return nil, err
	}
	if s.beforeExec != nil {
		s.beforeExec(ctx, req.SQL)
	}
	start := time.Now()
	res, err := s.eng.ExecPreparedContext(ctx, prep, patchindex.ExecOptions{
		DisablePatchRewrites: sess.disableRewrites,
		Trace:                req.Trace,
		SessionID:            sess.id,
		ClientAddr:           sess.remote,
		Parallelism:          sess.parallelism,
		Tenant:               sess.tenant,
	})
	s.hQuery.Observe(time.Since(start))
	if err != nil {
		// Surface the deadline/cancel cause even when the engine wrapped it.
		if ctxErr := ctx.Err(); ctxErr != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			err = fmt.Errorf("%w: %v", ctxErr, err)
		}
		return nil, err
	}
	return sess.render(req.ID, res), nil
}

// prepare returns a cached parsed statement or parses and caches one.
func (sess *session) prepare(sqlText string) (*patchindex.Prepared, error) {
	if p, ok := sess.cache[sqlText]; ok {
		sess.srv.mCacheHits.Inc()
		return p, nil
	}
	p, err := sess.srv.eng.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	if len(sess.cacheOrder) >= stmtCacheCap {
		delete(sess.cache, sess.cacheOrder[0])
		sess.cacheOrder = sess.cacheOrder[1:]
	}
	sess.cache[sqlText] = p
	sess.cacheOrder = append(sess.cacheOrder, sqlText)
	return p, nil
}

// render converts an engine result into a wire response, applying the
// session's max_rows clip. The writer renders the rows' values straight
// into the frame.
func (sess *session) render(id uint64, res *patchindex.Result) *protocol.Response {
	resp := &protocol.Response{
		ID:         id,
		Columns:    res.Columns,
		Message:    res.Message,
		DurationUS: res.Duration.Microseconds(),
		TraceID:    res.TraceID,
	}
	rows := res.Rows
	if sess.maxRows > 0 && len(rows) > sess.maxRows {
		rows = rows[:sess.maxRows]
		resp.Truncated = true
	}
	if len(rows) > 0 {
		resp.Cells = valueRows(rows)
	}
	return resp
}

// valueRows are result rows as the wire encoder reads them.
type valueRows [][]vector.Value

func (r valueRows) Len() int                               { return len(r) }
func (r valueRows) Width(i int) int                        { return len(r[i]) }
func (r valueRows) AppendCell(dst []byte, i, j int) []byte { return r[i][j].AppendTo(dst) }

// applySettings updates session settings from a "set" request.
func (sess *session) applySettings(req *protocol.Request) *protocol.Response {
	var applied []string
	for k, v := range req.Settings {
		switch k {
		case "timeout_ms":
			ms, err := strconv.Atoi(v)
			if err != nil || ms < 0 {
				return &protocol.Response{ID: req.ID, Error: fmt.Sprintf("bad timeout_ms %q", v), Code: protocol.CodeError}
			}
			sess.timeout = time.Duration(ms) * time.Millisecond
		case "max_rows":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return &protocol.Response{ID: req.ID, Error: fmt.Sprintf("bad max_rows %q", v), Code: protocol.CodeError}
			}
			sess.maxRows = n
		case "disable_rewrites":
			b, err := strconv.ParseBool(v)
			if err != nil {
				return &protocol.Response{ID: req.ID, Error: fmt.Sprintf("bad disable_rewrites %q", v), Code: protocol.CodeError}
			}
			sess.disableRewrites = b
		case "parallelism":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return &protocol.Response{ID: req.ID, Error: fmt.Sprintf("bad parallelism %q", v), Code: protocol.CodeError}
			}
			sess.parallelism = n
		case "tenant":
			if err := sess.setTenant(v); err != nil {
				return &protocol.Response{ID: req.ID, Error: err.Error(), Code: protocol.CodeError}
			}
		default:
			return &protocol.Response{ID: req.ID, Error: fmt.Sprintf("unknown setting %q", k), Code: protocol.CodeError}
		}
		applied = append(applied, k+"="+v)
	}
	return &protocol.Response{ID: req.ID, Message: "set " + strings.Join(applied, " ")}
}

// setTenant validates and applies a tenant id. Ids are restricted to
// [A-Za-z0-9_-] so per-tenant metric names (`tenant.<id>.shed`) stay
// unambiguous for the dot-separated alert-rule globs.
func (sess *session) setTenant(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("bad tenant %q", id)
	}
	for _, c := range id {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-') {
			return fmt.Errorf("bad tenant %q: use letters, digits, '_', '-'", id)
		}
	}
	sess.tenant = id
	// Lazily wire the tenant's result-cache budget (overrides were wired at
	// server start; this covers tenants that only match the QoS defaults).
	if qos := sess.srv.cfg.QoS; qos != nil {
		sess.srv.eng.ResultCache().SetTenantBudget(id, qos.Limits(id).ResultCacheBytes)
	}
	return nil
}

// write sends one response; false means the connection is dead. A result
// too large for one frame is answered with an error instead.
func (sess *session) write(resp *protocol.Response) bool {
	err := sess.w.WriteResponse(resp)
	if errors.Is(err, protocol.ErrTooLarge) {
		err = sess.w.WriteResponse(&protocol.Response{ID: resp.ID, Error: err.Error(), Code: protocol.CodeError})
	}
	return err == nil
}

// errorResponse maps an execution error to a coded wire response, updating
// the cancellation metrics.
func errorResponse(s *Server, id uint64, err error) *protocol.Response {
	code := protocol.CodeError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code = protocol.CodeTimeout
		s.mTimeouts.Inc()
	case errors.Is(err, context.Canceled):
		code = protocol.CodeCanceled
		s.mCanceled.Inc()
		if s.baseCtx.Err() != nil {
			code = protocol.CodeShutdown
		}
	case errors.Is(err, ErrServerBusy):
		code = protocol.CodeBusy
	case errors.Is(err, serving.ErrThrottled), errors.Is(err, serving.ErrTenantBusy):
		code = protocol.CodeThrottled
	case errors.Is(err, errShuttingDown):
		code = protocol.CodeShutdown
	}
	return &protocol.Response{ID: id, Error: err.Error(), Code: code}
}
