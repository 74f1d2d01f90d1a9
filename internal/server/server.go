// Package server is the concurrent SQL front-end of the patchindex engine:
// a TCP server speaking the length-prefixed JSON protocol of
// internal/server/protocol, with per-connection sessions, a bounded worker
// pool with admission control (queueing and load shedding), query
// cancellation by timeout, client request, or disconnect, and graceful
// shutdown that drains in-flight queries.
//
// The same TCP port also serves plain HTTP: the first bytes of each
// connection are sniffed — protocol connections start with the "PIDX1\n"
// magic, everything else is handed to an HTTP mux exposing /metrics,
// /stats (with per-index PatchIndex health), /healthz, the query history
// at /queries, Chrome-exportable traces at /trace/<id>, and (opt-in)
// /debug/pprof/.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"patchindex"
	"patchindex/internal/obs"
	"patchindex/internal/server/protocol"
	"patchindex/internal/serving"
)

// ErrServerBusy is returned (and sent to clients with code "busy") when the
// admission queue is full and a query is shed rather than queued.
var ErrServerBusy = errors.New("server busy: admission queue full")

// errShuttingDown is sent with code "shutdown" for work arriving mid-drain.
var errShuttingDown = errors.New("server is shutting down")

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. ":5433" or "127.0.0.1:0").
	Addr string
	// Engine is the database instance served; required.
	Engine *patchindex.Engine
	// Metrics receives server metrics; defaults to Engine.Metrics() so
	// engine and server counters appear in one /metrics page.
	Metrics *obs.Registry
	// MaxConcurrent bounds the queries executing at once (the worker pool
	// size). Default: GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth bounds the queries waiting for a slot; excess queries are
	// shed with ErrServerBusy. Default 64.
	QueueDepth int
	// DefaultTimeout is the per-query timeout for sessions that do not set
	// timeout_ms. Zero means no timeout.
	DefaultTimeout time.Duration
	// DefaultMaxRows clips result sets for sessions that do not set
	// max_rows. Zero means unlimited.
	DefaultMaxRows int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the shared
	// HTTP mux. Off by default: the profiler can observe query contents, so
	// exposing it is an explicit operator decision.
	EnablePprof bool
	// QoS is the per-tenant admission policy (token-bucket rate limits,
	// in-flight caps, priority classes). Nil admits every tenant at normal
	// priority. With QoS set, a tenant's priority also grades the global
	// admission queue: low-priority tenants are shed once the queue is half
	// full, normal at three quarters, high only when completely full — so
	// under pressure batch tenants back off before dashboards.
	QoS *serving.QoS
}

// Server is a running SQL server. Create with New, start with Start, stop
// with Shutdown.
type Server struct {
	cfg Config
	eng *patchindex.Engine

	ln      net.Listener
	httpLn  *chanListener
	httpSrv *http.Server

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool

	nextSession atomic.Uint64
	sem         chan struct{} // worker-pool slots
	queued      atomic.Int64
	inFlight    atomic.Int64
	queryWG     sync.WaitGroup // admitted-or-queued queries, drained on shutdown
	connWG      sync.WaitGroup // protocol connection handlers

	metrics        *obs.Registry
	mSessions      *obs.Counter
	gActiveSess    *obs.Gauge
	gQueued        *obs.Gauge
	gInFlight      *obs.Gauge
	mQueries       *obs.Counter
	mAdmitted      *obs.Counter
	mQueuedTotal   *obs.Counter
	mShed          *obs.Counter
	mCanceled      *obs.Counter
	mTimeouts      *obs.Counter
	mCacheHits     *obs.Counter
	hQuery         *obs.Histogram
	mHTTPRequests  *obs.Counter
	mProtoRequests *obs.Counter
}

// New validates the config and creates a server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cfg.Engine.Metrics()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		eng:        cfg.Engine,
		baseCtx:    ctx,
		cancelBase: cancel,
		conns:      map[net.Conn]struct{}{},
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		metrics:    cfg.Metrics,
	}
	r := cfg.Metrics
	s.mSessions = r.Counter("server_sessions_total")
	s.gActiveSess = r.Gauge("server_active_sessions")
	s.gQueued = r.Gauge("server_queries_queued")
	s.gInFlight = r.Gauge("server_queries_in_flight")
	s.mQueries = r.Counter("server_queries_total")
	s.mAdmitted = r.Counter("server_queries_admitted_total")
	s.mQueuedTotal = r.Counter("server_queries_queued_total")
	s.mShed = r.Counter("server_queries_shed_total")
	s.mCanceled = r.Counter("server_queries_canceled_total")
	s.mTimeouts = r.Counter("server_queries_timeout_total")
	s.mCacheHits = r.Counter("server_stmt_cache_hits_total")
	s.hQuery = r.Histogram("server_query_nanos")
	s.mHTTPRequests = r.Counter("server_http_requests_total")
	s.mProtoRequests = r.Counter("server_requests_total")
	// Per-tenant result-cache budgets flow from the QoS policy into the
	// engine's cache (sessions wire unlisted tenants lazily on \set tenant).
	if cfg.QoS != nil {
		for _, t := range cfg.QoS.Tenants() {
			cfg.Engine.ResultCache().SetTenantBudget(t, cfg.QoS.Limits(t).ResultCacheBytes)
		}
		cfg.Engine.ResultCache().SetTenantBudget(serving.DefaultTenant,
			cfg.QoS.Limits(serving.DefaultTenant).ResultCacheBytes)
	}
	return s, nil
}

// Start binds the listener and launches the accept loop and the HTTP
// handler. It returns immediately; use Addr for the bound address.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpLn = newChanListener(ln.Addr())
	s.httpSrv = &http.Server{Handler: s.httpMux()}
	go func() { _ = s.httpSrv.Serve(s.httpLn) }()
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// acceptLoop accepts connections until the listener closes, sniffing each
// one into the wire protocol or HTTP.
func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.mu.Unlock()
		go s.sniff(conn)
	}
}

// sniff peeks at the first bytes of a connection: the protocol magic routes
// it to a session, anything else is handed to the HTTP server.
func (s *Server) sniff(conn net.Conn) {
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	head, err := br.Peek(4)
	if err != nil {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if string(head) == protocol.Magic[:4] {
		magic := make([]byte, len(protocol.Magic))
		if _, err := readFull(br, magic); err != nil || string(magic) != protocol.Magic {
			conn.Close()
			return
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.serveSession(conn, br)
		}()
		return
	}
	s.mHTTPRequests.Inc()
	if !s.httpLn.deliver(&bufferedConn{Conn: conn, r: br}) {
		conn.Close()
	}
}

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// track registers a live protocol connection for shutdown closing.
func (s *Server) track(conn net.Conn) func() {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}
}

// admit acquires a worker-pool slot, queueing up to the priority's share
// of QueueDepth waiters and shedding beyond that. The returned release
// function frees the slot.
func (s *Server) admit(ctx context.Context, pri serving.Priority) (func(), error) {
	select {
	case s.sem <- struct{}{}:
		s.mAdmitted.Inc()
		return func() { <-s.sem }, nil
	default:
	}
	// No free slot: join the bounded queue or shed. Lower priorities see a
	// smaller effective queue, so they are shed first under pressure.
	depth := int64(s.cfg.QueueDepth)
	if s.cfg.QoS != nil {
		switch pri {
		case serving.PriorityLow:
			depth /= 2
		case serving.PriorityNormal:
			depth = depth * 3 / 4
		}
		if depth < 1 {
			depth = 1
		}
	}
	if s.queued.Add(1) > depth {
		s.queued.Add(-1)
		s.mShed.Inc()
		return nil, ErrServerBusy
	}
	s.mQueuedTotal.Inc()
	s.gQueued.Add(1)
	defer func() {
		s.queued.Add(-1)
		s.gQueued.Add(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		s.mAdmitted.Inc()
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Shutdown stops accepting connections, waits for in-flight queries to
// drain (bounded by ctx), then cancels whatever is left and closes every
// connection. It is safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}

	drained := make(chan struct{})
	go func() {
		s.queryWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Past the grace period (or after a clean drain): cancel stragglers and
	// tear the connections down.
	s.cancelBase()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	if s.httpSrv != nil {
		httpCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.httpSrv.Shutdown(httpCtx)
		s.httpLn.Close()
	}
	return err
}

// httpMux builds the HTTP side of the shared listener: /metrics, /stats
// (metrics snapshot + per-index PatchIndex health + workload snapshot),
// /healthz, the query history at /queries, single traces at /trace/<id>
// (?format=chrome for a chrome://tracing document), the workload observatory
// at /workload, per-index benefit attribution at /indexes, the self-tuner
// status and journal at /tuner, the health watchdog's retained history at
// /timeseries and alert standings at /alerts, and — when enabled —
// /debug/pprof/. The endpoints that name a patchindex.SurfaceViews surface
// answer ?format=text with its SHOW views.
func (s *Server) httpMux() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(s.metrics))
	mux.Handle("/stats", s.withViews("stats", jsonHandler(func() any {
		return struct {
			obs.Snapshot
			PatchIndexes []patchindex.IndexHealth `json:"patchindexes"`
			Workload     obs.WorkloadSnapshot     `json:"workload"`
			Serving      patchindex.ServingStats  `json:"serving"`
			Tenants      []serving.TenantSnapshot `json:"tenants,omitempty"`
		}{s.metrics.Snapshot(), s.eng.IndexHealth(), s.eng.Profiler().Snapshot(),
			s.eng.ServingStats(), s.cfg.QoS.Snapshot()}
	})))
	mux.Handle("/queries", s.withViews("queries", obs.QueriesHandler(s.eng.Tracer())))
	mux.Handle("/trace/", obs.TraceHandler(s.eng.Tracer()))
	mux.Handle("/workload", s.withViews("workload", obs.WorkloadHandler(s.eng.Profiler())))
	mux.Handle("/tuner", s.withViews("tuner", jsonHandler(func() any { return s.eng.Tuner().Status() })))
	mux.Handle("/timeseries", obs.TimeseriesHandler(s.eng.Monitor()))
	mux.Handle("/alerts", s.withViews("alerts", obs.AlertsHandler(s.eng.Monitor().Alerter())))
	mux.Handle("/indexes", s.withViews("indexes", jsonHandler(func() any {
		p := s.eng.Profiler()
		tick := p.Tick()
		return indexesDoc{Tick: tick, Indexes: s.eng.IndexHealth(), Benefits: p.Benefit().Snapshot(tick)}
	})))
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		status := "ok"
		code := http.StatusOK
		if draining {
			status = "draining"
			code = http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		fmt.Fprintf(w, "{\"status\":%q,\"active_sessions\":%d,\"in_flight\":%d,\"queued\":%d}\n",
			status, s.gActiveSess.Value(), s.inFlight.Load(), s.queued.Load())
	})
	return mux
}

// withViews serves ?format=text as the surface's SHOW views, run through
// the engine like any statement and buffered so a failing view yields a
// clean error response, and hands every other request to h.
func (s *Server) withViews(surface string, h http.Handler) http.Handler {
	views := patchindex.SurfaceViews(surface)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") != "text" {
			h.ServeHTTP(w, r)
			return
		}
		var sb strings.Builder
		if err := patchindex.WriteViews(&sb, views, s.eng.Exec); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, sb.String())
	})
}

// jsonHandler serves doc() as indented JSON.
func jsonHandler(doc func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc())
	})
}

// indexesDoc is the /indexes document: every PatchIndex's health enriched
// with its decayed benefit attribution, plus the raw benefit snapshot —
// which also carries pseudo-indexes like zone maps ("zonemap" constraint)
// that have no catalog entry. Tick is the profiler's decay clock
// (engine-relative statement ticks, monotonic across snapshots).
type indexesDoc struct {
	Tick     int64                    `json:"tick"`
	Indexes  []patchindex.IndexHealth `json:"indexes"`
	Benefits []obs.IndexBenefit       `json:"benefits"`
}

// bufferedConn replays bytes already buffered by the sniffing reader before
// reading from the underlying connection.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// chanListener adapts sniffed connections into a net.Listener for the
// embedded HTTP server.
type chanListener struct {
	ch   chan net.Conn
	addr net.Addr
	done chan struct{}
	once sync.Once
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{ch: make(chan net.Conn), addr: addr, done: make(chan struct{})}
}

// deliver hands a connection to Accept; false when the listener is closed.
func (l *chanListener) deliver(c net.Conn) bool {
	select {
	case l.ch <- c:
		return true
	case <-l.done:
		return false
	}
}

// Accept implements net.Listener.
func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *chanListener) Addr() net.Addr { return l.addr }
