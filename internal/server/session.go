package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"patchindex"
	"patchindex/internal/server/protocol"
	"patchindex/internal/serving"
)

// stmtCacheCap bounds the per-session prepared-statement cache (FIFO
// eviction).
const stmtCacheCap = 64

// session is the per-connection state of one wire-protocol client.
type session struct {
	srv    *Server
	id     uint64
	conn   net.Conn
	remote string // client remote address, annotates traces and slow-query log

	// Settings, adjustable via "set" requests.
	timeout         time.Duration // per-query deadline; 0 = none
	maxRows         int           // result clip; 0 = unlimited
	disableRewrites bool          // run baseline plans (no PatchIndex rewrites)
	parallelism     int           // degree of parallelism; 0 = engine default, 1 = serial
	tenant          string        // QoS tenant; sessions start on the default tenant

	// Prepared-statement cache: SQL text → parsed statement, FIFO-evicted.
	cache      map[string]*patchindex.Prepared
	cacheOrder []string
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
		conn:    conn,
		remote:  conn.RemoteAddr().String(),
		timeout: s.cfg.DefaultTimeout,
		maxRows: s.cfg.DefaultMaxRows,
		tenant:  serving.DefaultTenant,
		cache:   map[string]*patchindex.Prepared{},
	}
	// Hello: tells the client its session id and tenant. Clients move to a
	// tenant with the Tenant request field or `\set tenant`.
	if err := protocol.WriteMessage(conn, &protocol.Response{
		SessionID: sess.id, Tenant: sess.tenant, Message: "patchindex server ready",
	}); err != nil {
		return
	}

	// A dedicated goroutine reads requests so the main loop can watch for
	// cancel requests and disconnects while a query executes. done makes the
	// reader exit when the session ends for any other reason.
	done := make(chan struct{})
	defer close(done)
	reqCh := make(chan *protocol.Request)
	readErr := make(chan error, 1)
	go func() {
		for {
			req, err := protocol.ReadRequest(br)
			if err != nil {
				readErr <- err
				return
			}
			select {
			case reqCh <- req:
			case <-done:
				return
			}
		}
	}()

	for {
		select {
		case <-s.baseCtx.Done():
			_ = protocol.WriteMessage(conn, &protocol.Response{
				Error: errShuttingDown.Error(), Code: protocol.CodeShutdown,
			})
			return
		case <-readErr:
			return // client went away
		case req := <-reqCh:
			if !sess.handle(req, reqCh, readErr) {
				return
			}
		}
	}
}

// handle dispatches one request; false ends the session.
func (sess *session) handle(req *protocol.Request, reqCh chan *protocol.Request, readErr chan error) bool {
	sess.srv.mProtoRequests.Inc()
	// A tenant riding any request moves the session (the wire-level
	// equivalent of `\set tenant`); a bad id fails the request.
	if req.Tenant != "" {
		if err := sess.setTenant(req.Tenant); err != nil {
			return sess.write(&protocol.Response{ID: req.ID, Error: err.Error(), Code: protocol.CodeError})
		}
	}
	switch req.Type {
	case protocol.TypeQuery:
		return sess.runQuery(req, reqCh, readErr)
	case protocol.TypeSet:
		return sess.write(sess.applySettings(req))
	case protocol.TypePing:
		return sess.write(&protocol.Response{ID: req.ID, Message: "pong"})
	case protocol.TypeCancel:
		// Nothing in flight on this session (in-flight cancels are handled
		// inside runQuery).
		return sess.write(&protocol.Response{ID: req.ID, Message: "no query in flight"})
	case protocol.TypeClose:
		_ = protocol.WriteMessage(sess.conn, &protocol.Response{ID: req.ID, Message: "bye"})
		return false
	default:
		return sess.write(&protocol.Response{
			ID: req.ID, Error: fmt.Sprintf("unknown request type %q", req.Type), Code: protocol.CodeError,
		})
	}
}

// runQuery executes one SQL statement under admission control and the
// session's timeout, watching for cancel requests and disconnects while it
// runs. Requests other than cancel that arrive mid-query are processed in
// arrival order once the query finishes.
func (sess *session) runQuery(req *protocol.Request, reqCh chan *protocol.Request, readErr chan error) bool {
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
	// Held until the response is written (and any piggybacked requests are
	// handled), so a graceful shutdown cannot close the connection between
	// query completion and the result reaching the client.
	defer s.queryWG.Done()

	var qctx context.Context
	var cancel context.CancelFunc
	if sess.timeout > 0 {
		qctx, cancel = context.WithTimeout(s.baseCtx, sess.timeout)
	} else {
		qctx, cancel = context.WithCancel(s.baseCtx)
	}

	type outcome struct {
		resp *protocol.Response
		err  error
	}
	resCh := make(chan outcome, 1)
	go func() {
		s.inFlight.Add(1)
		s.gInFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			s.gInFlight.Add(-1)
		}()
		resp, err := sess.execute(qctx, req)
		resCh <- outcome{resp, err}
	}()

	var pending []*protocol.Request
	var res outcome
wait:
	for {
		select {
		case res = <-resCh:
			break wait
		case other := <-reqCh:
			if other.Type == protocol.TypeCancel && (other.CancelID == 0 || other.CancelID == req.ID) {
				cancel()
				if !sess.write(&protocol.Response{ID: other.ID, Message: "cancel requested"}) {
					// Keep draining resCh below even if the write failed.
					res = <-resCh
					cancel()
					return false
				}
				continue
			}
			pending = append(pending, other)
		case <-readErr:
			// Client disconnected mid-query: cancel and wait for the executor
			// goroutine so the slot is released before the session dies.
			cancel()
			<-resCh
			return false
		}
	}
	cancel()

	if res.err != nil {
		if !sess.write(errorResponse(s, req.ID, res.err)) {
			return false
		}
	} else {
		if !sess.write(res.resp) {
			return false
		}
	}
	for _, p := range pending {
		if !sess.handle(p, reqCh, readErr) {
			return false
		}
	}
	return true
}

// execute admits (tenant QoS first, then the global queue), prepares
// (with the session cache), and runs one query.
func (sess *session) execute(ctx context.Context, req *protocol.Request) (*protocol.Response, error) {
	s := sess.srv
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
// session's max_rows clip.
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
	resp.Rows = make([][]string, len(rows))
	for i, row := range rows {
		out := make([]string, len(row))
		for j, v := range row {
			out[j] = v.String()
		}
		resp.Rows[i] = out
	}
	return resp
}

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

// write sends one response; false means the connection is dead.
func (sess *session) write(resp *protocol.Response) bool {
	return protocol.WriteMessage(sess.conn, resp) == nil
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
