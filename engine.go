// Package patchindex is a vectorized, in-memory analytical SQL engine with
// PatchIndex support: approximate constraints ("nearly unique" and "nearly
// sorted" columns) whose exceptions are kept in a per-column set of patches
// and exploited during query optimization and execution, reproducing
//
//	Kläbe, Sattler, Baumann: "PatchIndex — Exploiting Approximate
//	Constraints in Self-managing Databases", ICDE 2020.
//
// The Engine type is the public entry point: create tables, load data, run
// SQL, create PatchIndexes (manually or via the Advisor) and observe the
// distinct/sort/join rewrites of the paper in EXPLAIN output and runtimes.
package patchindex

import (
	"bufio"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"patchindex/internal/catalog"
	"patchindex/internal/discovery"
	"patchindex/internal/exec"
	"patchindex/internal/maintain"
	"patchindex/internal/obs"
	"patchindex/internal/patch"
	"patchindex/internal/plan"
	"patchindex/internal/serving"
	"patchindex/internal/sql"
	"patchindex/internal/storage"
	"patchindex/internal/tuning"
	"patchindex/internal/vector"
	"patchindex/internal/wal"
)

// Config configures an Engine.
type Config struct {
	// DefaultPartitions is the partition count for CREATE TABLE without a
	// PARTITIONS clause (default 1).
	DefaultPartitions int
	// Parallelism is the default intra-query degree of parallelism: the
	// worker-pool bound for parallel scans, partial aggregation, and
	// PatchIndex discovery/builds. 0 or 1 means serial execution. Any value
	// above 1 splits plans into per-partition pipelines, including values
	// above runtime.GOMAXPROCS(0); the executor caps its workers at
	// GOMAXPROCS and at the pipeline count. Sessions can override it per
	// connection via the `parallelism` setting, and ExecOptions per
	// statement.
	Parallelism int
	// DisablePatchRewrites turns the optimizer's PatchIndex rewrites off
	// globally (per-query control is available via ExecOptions).
	DisablePatchRewrites bool
	// CostBasedRewrites gates every PatchIndex rewrite on the cost model:
	// a rewrite is applied only when the rewritten plan is estimated
	// cheaper. Off by default (the paper applies rewrites unconditionally).
	CostBasedRewrites bool
	// DisableScanRanges turns off SMA-based block pruning and zone-map
	// partition pruning.
	DisableScanRanges bool
	// DisableKernels turns off compiled vectorized expression kernels,
	// falling back to interpreted row-at-a-time expression evaluation
	// (the pre-kernel execution path; useful for A/B comparison).
	DisableKernels bool
	// Metrics is the registry receiving engine-wide counters and latency
	// histograms. When nil a private registry is created, so Engine.Metrics
	// always works; pass a shared registry to aggregate several engines
	// (e.g. the benchmark harness).
	Metrics *obs.Registry
	// SlowQueryThreshold, when positive, logs every statement whose
	// execution takes at least this long to SlowQueryLog.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
	// TraceHistory is the capacity of the completed-query trace ring served
	// via Tracer (default obs.DefaultTraceHistory).
	TraceHistory int
	// TraceSample, when positive, enables statement tracing: every statement
	// is recorded in the query history and every TraceSample-th statement
	// collects a full span tree (1 = all). Zero leaves tracing disabled;
	// individual statements can still force a trace via ExecOptions.Trace.
	TraceSample int
	// WorkloadProfile enables the workload observatory at startup: statement
	// fingerprinting with per-fingerprint aggregates, per-column access
	// accounting, per-index benefit attribution, and shadow accounting. Off
	// by default; flip at runtime via Profiler().SetEnabled. Disabled, the
	// per-statement cost is one atomic load.
	WorkloadProfile bool
	// WorkloadFingerprints bounds the profiler's per-fingerprint aggregate
	// table (0 = obs.DefaultWorkloadFingerprints). Statements beyond the
	// bound aggregate into a catch-all "(other)" bucket.
	WorkloadFingerprints int
	// AutoTune starts the background self-tuner: a goroutine that
	// periodically mines the workload observatory for PatchIndex candidates,
	// creates winners within the Tuning budget, and drops indexes whose
	// decayed benefit no longer pays for their keep. Implies WorkloadProfile
	// (the tuner is blind without the observatory). The tuner exists even
	// when AutoTune is off — ALTER TUNER START flips it on at runtime.
	AutoTune bool
	// Tuning bounds the self-tuner (zero values take tuning defaults:
	// interval, builds per cycle, memory budget, drop hysteresis).
	Tuning tuning.Config
	// Monitor starts the health watchdog: a sampler goroutine snapshotting
	// registry metrics, per-index patch ratios, zone-map staleness, and
	// runtime stats into bounded time-series rings, with drift detection and
	// rule-based alerting on top (/timeseries, /alerts, SHOW ALERTS). The
	// monitor exists even when this is off — Engine.Monitor().Start() flips
	// it on at runtime; disabled it costs nothing on the statement path.
	Monitor bool
	// SampleInterval is the monitor's sampling cadence (default 1s, min
	// 10ms).
	SampleInterval time.Duration
	// AlertRules overrides the built-in watchdog rules (nil keeps
	// obs.DefaultRules: patch-ratio drift vs the 1/64 crossover, latency
	// regression, admission pressure, queue depth).
	AlertRules []obs.Rule
	// PlanCache enables the serving bound-plan cache: optimized logical
	// plans keyed on statement text + rewrite options, invalidated by the
	// catalog epoch (every DDL and tuner create/drop/rebuild bumps it), so
	// repeated dashboard-style statements skip parse-adjacent bind/rewrite
	// work without ever serving a plan from a stale index set. It holds
	// serving.DefaultPlanCacheSize (512) entries.
	PlanCache bool
	// ResultCache enables the serving result cache: materialized read-only
	// results keyed on statement text + per-table version stamps, evicted
	// LRU under ResultCacheBytes. Only deterministic-order SELECTs are
	// cached (sorted output or a global aggregate); any append to a
	// referenced table invalidates via the version vector.
	ResultCache bool
	// ResultCacheBytes bounds the result cache (0 = default 32 MiB).
	ResultCacheBytes int64
	// DataDir makes the engine durable; empty keeps everything in memory.
	// Partitions flush to compressed segment files under DataDir/segs, the
	// catalog manifest lives at DataDir/MANIFEST.json, DDL and ingest are
	// write-ahead logged to a generation file (DataDir/wal.gN.log) rotated
	// by CHECKPOINT, PatchIndex payloads are materialized under DataDir/idx
	// (the first design alternative of Section V), and decoded column
	// payloads are governed by the clock cache. New on an existing DataDir
	// restores the checkpointed state and replays the WAL suffix.
	DataDir string
	// CacheBytes budgets the decoded-column clock cache in durable mode
	// (<= 0 means unlimited: nothing is ever evicted). Dirty and pinned
	// partitions never evict, so the budget can be temporarily overshot —
	// the storage_cache_budget_overshoots_total counter tracks that.
	CacheBytes int64
	// SpillDir is where Sort and HashJoin spill runs when an operator's
	// working set exceeds SpillBytes (default: os.TempDir()).
	SpillDir string
	// SpillBytes bounds an operator's in-memory working set before it
	// spills to disk (0 disables spilling).
	SpillBytes int64
}

// ExecOptions tune a single statement execution.
type ExecOptions struct {
	// DisablePatchRewrites runs the statement without PatchIndex rewrites
	// (the baseline plan), regardless of existing indexes.
	DisablePatchRewrites bool
	// Trace forces a full trace (span tree) for this statement, regardless
	// of the tracer's enabled/sampling state. The trace id is returned in
	// Result.TraceID and the profile lands in the tracer's history ring.
	Trace bool
	// SessionID and ClientAddr identify the server session that issued the
	// statement; they annotate traces and slow-query log lines. Zero/empty
	// for embedded (library) use.
	SessionID  uint64
	ClientAddr string
	// Parallelism overrides the engine's degree of parallelism for this
	// statement (1 = serial, >1 = bounded worker pool, 0 = use the engine
	// configuration). Set from the session `parallelism` setting.
	Parallelism int
	// DisableKernels runs this statement with interpreted expression
	// evaluation instead of compiled vectorized kernels.
	DisableKernels bool
	// Tenant attributes this statement to a serving tenant: the result
	// cache charges cached bytes against the tenant's budget and slow-query
	// log lines carry the id. Empty means the default tenant.
	Tenant string
}

// Engine is a self-contained database instance.
//
// Concurrency contract: an Engine is safe for concurrent use by multiple
// goroutines. Statements acquire per-table reader/writer latches before
// touching table data — SELECT/EXPLAIN take shared latches so reads run in
// parallel, while INSERT, COPY, CREATE/DROP PATCHINDEX and DROP TABLE take
// exclusive latches on the tables they mutate (multi-table statements
// acquire latches in sorted name order, so they cannot deadlock against
// each other). The catalog, the metrics registry, the WAL, the maintainer
// cache, and the slow-query log are each internally synchronized. The
// public bulk APIs (Append, LoadColumns, CreatePatchIndex) take the same
// exclusive latches as their SQL counterparts. There is one write path:
// INSERT, COPY, Append, LoadColumns (an alias of Append kept for its frozen
// signature) and WAL replay all add rows through appendLatched. Long-running
// statements are cancellable mid-batch via the context accepted by the
// *Context methods.
type Engine struct {
	cfg Config
	cat *catalog.Catalog
	log *wal.Log

	// latchMu guards the latches map; the per-table latches themselves
	// implement the reader/writer table locking described above.
	latchMu sync.Mutex
	latches map[string]*sync.RWMutex

	// slowMu serializes slow-query log writes (the io.Writer is shared).
	slowMu sync.Mutex

	metrics  *obs.Registry
	tracer   *obs.Tracer
	profiler *obs.Profiler
	tuner    *tuning.Tuner
	monitor  *obs.Monitor
	slowLog  io.Writer
	// Hot-path metrics are resolved once here; incrementing them is
	// lock-free.
	mStatements  *obs.Counter
	mQueries     *obs.Counter
	mSlowQueries *obs.Counter
	mRewFired    *obs.Counter
	mRewRejected *obs.Counter
	hQuery       *obs.Histogram
	hIndexBuild  *obs.Histogram
	mIndexBuilds *obs.Counter

	maintMu     sync.Mutex
	maintainers map[string]*maintain.Set // per table name, lazily built, self-checking

	// Serving fast path (see serving.go): both caches always exist and are
	// nil-safe/atomically-disabled, so the hot path needs no config checks.
	planCache   *serving.PlanCache
	resultCache *serving.ResultCache

	// Durable mode (see persist.go). cache and log are nil outside durable
	// mode, and log stays nil until recovery has replayed the WAL suffix, so
	// replay does not log again; gen is the current checkpoint generation;
	// checkpointMu serializes checkpoints.
	cache        *storage.Cache
	recovery     RecoveryStats
	gen          uint64
	checkpointMu sync.Mutex
}

// New creates an engine. With cfg.DataDir set it opens (or creates) the data
// directory and restores its tables and PatchIndexes before returning.
func New(cfg Config) (*Engine, error) {
	if cfg.DefaultPartitions <= 0 {
		cfg.DefaultPartitions = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.SlowQueryLog == nil {
		cfg.SlowQueryLog = os.Stderr
	}
	e := &Engine{
		cfg:         cfg,
		cat:         catalog.New(),
		maintainers: map[string]*maintain.Set{},
		latches:     map[string]*sync.RWMutex{},
	}
	e.metrics = cfg.Metrics
	e.slowLog = cfg.SlowQueryLog
	e.tracer = obs.NewTracer(cfg.TraceHistory)
	if cfg.TraceSample > 0 {
		e.tracer.SetSampleEvery(cfg.TraceSample)
		e.tracer.SetEnabled(true)
	}
	e.profiler = obs.NewProfiler(cfg.WorkloadFingerprints)
	if cfg.WorkloadProfile || cfg.AutoTune {
		e.profiler.SetEnabled(true)
	}
	e.tuner = tuning.New(cfg.Tuning, e.profiler, engineActuator{e})
	e.monitor = obs.NewMonitor(e.metrics, cfg.SampleInterval, cfg.AlertRules, e.collectSamples)
	// Close the observe→detect→act loop: firing drift alerts become tuner
	// rebuild candidates, and every tuner journal action surfaces as an info
	// alert event.
	e.monitor.Alerter().SetNotify(e.onAlert)
	e.tuner.SetNotify(e.onTunerEvent)
	e.mStatements = e.metrics.Counter("statements_total")
	e.mQueries = e.metrics.Counter("queries_total")
	e.mSlowQueries = e.metrics.Counter("slow_queries_total")
	e.mRewFired = e.metrics.Counter("rewrites_fired_total")
	e.mRewRejected = e.metrics.Counter("rewrites_rejected_total")
	e.hQuery = e.metrics.Histogram("query_nanos")
	e.hIndexBuild = e.metrics.Histogram("index_build_nanos")
	e.mIndexBuilds = e.metrics.Counter("index_builds_total")
	e.planCache = serving.NewPlanCache(serving.DefaultPlanCacheSize, e.metrics)
	e.planCache.SetEnabled(cfg.PlanCache)
	e.resultCache = serving.NewResultCache(cfg.ResultCacheBytes, e.metrics)
	e.resultCache.SetEnabled(cfg.ResultCache)
	if cfg.DataDir != "" {
		e.cache = storage.NewCache(cfg.CacheBytes)
		e.cache.SetMetrics(e.metrics)
		if err := e.openDataDir(); err != nil {
			return nil, err
		}
	}
	// The background loops start last: they never see a half-recovered
	// catalog, and a failed open leaves no goroutine behind.
	if cfg.AutoTune {
		e.tuner.Start()
	}
	if cfg.Monitor {
		e.monitor.Start()
	}
	return e, nil
}

// Metrics returns the engine's metric registry (never nil).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Tracer returns the engine's statement tracer (never nil). Flip it on with
// Tracer().SetEnabled(true) or Config.TraceSample; its ring holds the
// query history served at /queries and /trace/<id>.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Profiler returns the engine's workload observatory (never nil). Flip it on
// with Profiler().SetEnabled(true) or Config.WorkloadProfile; its snapshot
// backs /workload, and its benefit tracker enriches IndexHealth.
func (e *Engine) Profiler() *obs.Profiler { return e.profiler }

// Close stops the monitor and the background tuner (in that order — the
// sampler feeds the tuner), closes every table's segment files, and
// releases the WAL (if any). It does NOT checkpoint: unflushed ingest is
// still in the WAL, so a reopen replays it — call Checkpoint first when a
// fast restart matters.
func (e *Engine) Close() error {
	e.monitor.Stop()
	e.tuner.Stop()
	if e.durable() {
		for _, name := range e.cat.TableNames() {
			if t, err := e.cat.Table(name); err == nil {
				t.ReleaseStorage()
			}
		}
	}
	if e.log != nil {
		return e.log.Close()
	}
	return nil
}

// Catalog exposes the table and index registry.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]vector.Value
	// Message is set for non-query statements ("table created", ...).
	Message string
	// Duration is the wall time of the statement, parse to materialization.
	Duration time.Duration
	// TraceID identifies the statement's profile in the engine tracer's
	// history ring when the statement was traced; 0 otherwise.
	TraceID uint64
}

// String renders the result as an aligned text table (for the CLI and the
// examples).
func (r *Result) String() string {
	if len(r.Columns) == 0 {
		return r.Message
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	rendered := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		rendered[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			rendered[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	seps := make([]string, len(r.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	writeRow(seps)
	for _, row := range rendered {
		writeRow(row)
	}
	sb.WriteString(fmt.Sprintf("(%d rows)\n", len(r.Rows)))
	return sb.String()
}

// Exec parses and executes one SQL statement with default options.
func (e *Engine) Exec(query string) (*Result, error) {
	return e.ExecWith(query, ExecOptions{})
}

// ExecContext is Exec under a cancellable context: a deadline or
// cancellation stops execution mid-batch with the context's error.
func (e *Engine) ExecContext(ctx context.Context, query string) (*Result, error) {
	return e.ExecWithContext(ctx, query, ExecOptions{})
}

// ExecWith parses and executes one SQL statement, recording its duration in
// the metrics registry, stamping Result.Duration, and writing a slow-query
// log line when the configured threshold is exceeded.
func (e *Engine) ExecWith(query string, opts ExecOptions) (*Result, error) {
	return e.ExecWithContext(context.Background(), query, opts)
}

// ExecWithContext is ExecWith under a cancellable context.
func (e *Engine) ExecWithContext(ctx context.Context, query string, opts ExecOptions) (*Result, error) {
	at, ctx := e.beginTrace(ctx, query, opts)
	sp := at.StartSpan("parse", -1)
	stmt, err := sql.Parse(query)
	at.EndSpan(sp)
	if err != nil {
		at.Finish(0, err)
		return nil, err
	}
	return e.execPrepared(ctx, query, stmt, opts)
}

// beginTrace starts a trace for one statement (nil when tracing is off and
// the statement does not force it) and attaches it to the context so the
// execution phases and operators can record spans.
func (e *Engine) beginTrace(ctx context.Context, query string, opts ExecOptions) (*obs.ActiveTrace, context.Context) {
	at := e.tracer.Start(query, opts.Trace)
	if at == nil {
		return nil, ctx
	}
	at.SetSession(opts.SessionID, opts.ClientAddr)
	return at, obs.ContextWithTrace(ctx, at)
}

// Prepared is a parsed statement bound to the engine that produced it. It
// skips re-parsing on repeated execution (the server's per-session statement
// cache) but is re-planned each run, so it always sees the current index
// set. A Prepared is immutable and safe for concurrent use.
type Prepared struct {
	text string
	stmt sql.Statement
}

// Text returns the original SQL text.
func (p *Prepared) Text() string { return p.text }

// Prepare parses one statement for repeated execution.
func (e *Engine) Prepare(query string) (*Prepared, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return &Prepared{text: query, stmt: stmt}, nil
}

// ExecPrepared executes a prepared statement with default options.
func (e *Engine) ExecPrepared(p *Prepared) (*Result, error) {
	return e.ExecPreparedContext(context.Background(), p, ExecOptions{})
}

// ExecPreparedContext executes a prepared statement under a context.
func (e *Engine) ExecPreparedContext(ctx context.Context, p *Prepared, opts ExecOptions) (*Result, error) {
	return e.execPrepared(ctx, p.text, p.stmt, opts)
}

// execPrepared latches the referenced tables, dispatches the statement, and
// records duration metrics, the trace, and the slow-query log. A trace
// begun by ExecWithContext (with its parse span) rides in on the context;
// the prepared path starts one here (no parse happened).
func (e *Engine) execPrepared(ctx context.Context, query string, stmt sql.Statement, opts ExecOptions) (*Result, error) {
	at := obs.TraceFromContext(ctx)
	if at == nil {
		at, ctx = e.beginTrace(ctx, query, opts)
	}
	so := e.profiler.Begin()
	if so != nil {
		ctx = obs.ContextWithStmtObs(ctx, so)
	}
	start := time.Now()
	release := e.latchStmt(stmt)
	res, err := e.execStmt(ctx, query, stmt, opts)
	release()
	elapsed := time.Since(start)
	e.mStatements.Inc()
	e.hQuery.Observe(elapsed)
	var rows int64
	if res != nil {
		rows = int64(len(res.Rows))
	}
	var fp uint64
	if e.profiler.Enabled() {
		var norm string
		fp, norm = sql.Fingerprint(query)
		at.SetFingerprint(fp)
		e.profiler.Record(so, fp, norm, elapsed, rows, err, e.effectiveParallelism(opts))
	}
	tr := at.Finish(rows, err)
	if res != nil {
		res.Duration = elapsed
		if tr != nil {
			res.TraceID = tr.ID
		}
	}
	e.noteSlow(query, elapsed, opts, at.ID(), fp)
	return res, err
}

// noteSlow logs a statement that crossed the slow-query threshold, tagging
// it with the issuing session, the client address, the trace id when the
// statement arrived via the server / was traced, and the workload
// fingerprint when profiling is on (joinable against /workload aggregates).
func (e *Engine) noteSlow(query string, elapsed time.Duration, opts ExecOptions, traceID uint64, fp uint64) {
	if e.cfg.SlowQueryThreshold <= 0 || elapsed < e.cfg.SlowQueryThreshold {
		return
	}
	e.mSlowQueries.Inc()
	var tags strings.Builder
	if opts.SessionID != 0 {
		fmt.Fprintf(&tags, " session=%d", opts.SessionID)
	}
	if opts.ClientAddr != "" {
		fmt.Fprintf(&tags, " client=%s", opts.ClientAddr)
	}
	if traceID != 0 {
		fmt.Fprintf(&tags, " trace=%d", traceID)
	}
	if fp != 0 {
		fmt.Fprintf(&tags, " fingerprint=%016x", fp)
	}
	// Put the statement in context: running p95/p99 of all query latencies,
	// so a reader can tell an outlier from a general slowdown at a glance.
	if q := e.hQuery.Snapshot(); q.Count > 0 {
		fmt.Fprintf(&tags, " p95=%s p99=%s",
			time.Duration(q.P95Nanos).Round(time.Microsecond),
			time.Duration(q.P99Nanos).Round(time.Microsecond))
	}
	e.slowMu.Lock()
	defer e.slowMu.Unlock()
	fmt.Fprintf(e.slowLog, "slow query (%s)%s: %s\n",
		elapsed.Round(time.Microsecond), tags.String(), strings.Join(strings.Fields(query), " "))
}

// latch returns the reader/writer latch of a table, creating it on first
// use. Latches outlive DROP TABLE so a reused name keeps its latch.
func (e *Engine) latch(name string) *sync.RWMutex {
	e.latchMu.Lock()
	defer e.latchMu.Unlock()
	l, ok := e.latches[name]
	if !ok {
		l = &sync.RWMutex{}
		e.latches[name] = l
	}
	return l
}

// latchStmt acquires the table latches a statement needs — shared for reads,
// exclusive for writes — in sorted name order (deadlock-free), and returns
// the release function.
func (e *Engine) latchStmt(stmt sql.Statement) func() {
	reads, writes := stmtTables(stmt)
	return e.acquireLatches(reads, writes)
}

// acquireLatches locks the given tables (exclusive wins when a name appears
// in both lists) and returns a function releasing them in reverse order.
func (e *Engine) acquireLatches(reads, writes []string) func() {
	if len(reads) == 0 && len(writes) == 0 {
		return func() {}
	}
	excl := make(map[string]bool, len(writes))
	for _, t := range writes {
		excl[t] = true
	}
	seen := make(map[string]bool, len(reads)+len(writes))
	names := make([]string, 0, len(reads)+len(writes))
	for _, t := range append(append([]string{}, writes...), reads...) {
		if !seen[t] {
			seen[t] = true
			names = append(names, t)
		}
	}
	sort.Strings(names)
	release := make([]func(), 0, len(names))
	for _, n := range names {
		l := e.latch(n)
		if excl[n] {
			l.Lock()
			release = append(release, l.Unlock)
		} else {
			l.RLock()
			release = append(release, l.RUnlock)
		}
	}
	return func() {
		for i := len(release) - 1; i >= 0; i-- {
			release[i]()
		}
	}
}

// stmtTables classifies the tables a statement reads and writes. SHOW and
// CREATE TABLE need no latches: they only touch the internally-synchronized
// catalog (SHOW latches per table while rendering).
func stmtTables(stmt sql.Statement) (reads, writes []string) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		reads = selectTables(s, nil)
	case *sql.ExplainStmt:
		reads = selectTables(s.Query, nil)
	case *sql.InsertStmt:
		writes = []string{s.Table}
	case *sql.CopyStmt:
		writes = []string{s.Table}
	case *sql.CreatePatchIndexStmt:
		writes = []string{s.Table}
	case *sql.DropPatchIndexStmt:
		writes = []string{s.Table}
	case *sql.DropTableStmt:
		writes = []string{s.Name}
	}
	return reads, writes
}

// selectTables collects every base table referenced by a SELECT, including
// joins and derived tables.
func selectTables(s *sql.SelectStmt, acc []string) []string {
	if s == nil {
		return acc
	}
	acc = tableRefTables(s.From, acc)
	for _, j := range s.Joins {
		acc = tableRefTables(j.Table, acc)
	}
	return acc
}

func tableRefTables(r *sql.TableRef, acc []string) []string {
	if r == nil {
		return acc
	}
	if r.Subquery != nil {
		return selectTables(r.Subquery, acc)
	}
	return append(acc, r.Name)
}

func (e *Engine) execStmt(ctx context.Context, query string, stmt sql.Statement, opts ExecOptions) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return e.runSelect(ctx, query, s, opts)
	case *sql.ExplainStmt:
		var text string
		var err error
		if s.Analyze {
			text, err = e.explainAnalyze(ctx, query, s.Query, opts)
		} else {
			text, err = e.explain(ctx, s.Query, opts)
		}
		if err != nil {
			return nil, err
		}
		return &Result{Message: text}, nil
	case *sql.CreateTableStmt:
		return e.runCreateTable(s)
	case *sql.DropTableStmt:
		t, err := e.cat.Table(s.Name)
		if err != nil {
			return nil, err
		}
		if err := e.cat.DropTable(s.Name); err != nil {
			return nil, err
		}
		// Close segment file handles now; the files themselves stay until
		// the next checkpoint's orphan sweep (the current manifest may still
		// reference them — deleting early would break crash recovery).
		t.ReleaseStorage()
		if e.log != nil {
			if err := e.log.AppendDropTable(wal.DropTableRecord{Table: s.Name}); err != nil {
				return nil, err
			}
		}
		return &Result{Message: fmt.Sprintf("table %s dropped", s.Name)}, nil
	case *sql.InsertStmt:
		return e.runInsert(s)
	case *sql.CreatePatchIndexStmt:
		return e.runCreatePatchIndex(s)
	case *sql.DropPatchIndexStmt:
		// The statement dispatcher already holds the table's exclusive latch.
		if err := e.dropPatchIndexLatched(s.Table, s.Column); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("PatchIndex on %s.%s dropped", s.Table, s.Column)}, nil
	case *sql.CopyStmt:
		return e.runCopy(s)
	case *sql.ShowStmt:
		return e.runShow(s)
	case *sql.AlterTunerStmt:
		return e.runAlterTuner(s)
	case *sql.CheckpointStmt:
		return e.runCheckpoint()
	default:
		return nil, fmt.Errorf("patchindex: unsupported statement %T", stmt)
	}
}

// DrainWith executes a SELECT and returns only its row count, without
// materializing the result. Benchmarks use it so that timing covers query
// execution rather than result buffering.
func (e *Engine) DrainWith(query string, opts ExecOptions) (int, error) {
	return e.DrainWithContext(context.Background(), query, opts)
}

// DrainWithContext is DrainWith under a cancellable context.
func (e *Engine) DrainWithContext(ctx context.Context, query string, opts ExecOptions) (int, error) {
	at, ctx := e.beginTrace(ctx, query, opts)
	sp := at.StartSpan("parse", -1)
	stmt, err := sql.Parse(query)
	at.EndSpan(sp)
	if err != nil {
		at.Finish(0, err)
		return 0, err
	}
	s, ok := stmt.(*sql.SelectStmt)
	if !ok {
		err := fmt.Errorf("patchindex: DrainWith requires a SELECT statement")
		at.Finish(0, err)
		return 0, err
	}
	so := e.profiler.Begin()
	if so != nil {
		ctx = obs.ContextWithStmtObs(ctx, so)
	}
	start := time.Now()
	release := e.acquireLatches(selectTables(s, nil), nil)
	defer release()
	node, err := e.planSelectCached(ctx, query, s, opts)
	if err != nil {
		at.Finish(0, err)
		return 0, err
	}
	op, err := e.buildPlan(ctx, node, opts)
	if err != nil {
		at.Finish(0, err)
		return 0, err
	}
	execSp := at.StartSpan("execute", -1)
	n, err := exec.DrainContext(ctx, op)
	at.EndSpan(execSp)
	elapsed := time.Since(start)
	if err == nil {
		at.AddPatchHits(exec.AppendOpSpans(at, execSp, op))
		exec.AppendIndexUses(so, op)
	}
	var fp uint64
	if e.profiler.Enabled() {
		var norm string
		fp, norm = sql.Fingerprint(query)
		at.SetFingerprint(fp)
		e.profiler.Record(so, fp, norm, elapsed, int64(n), err, e.effectiveParallelism(opts))
	}
	at.Finish(int64(n), err)
	e.mQueries.Inc()
	e.hQuery.Observe(elapsed)
	e.noteSlow(query, elapsed, opts, at.ID(), fp)
	return n, err
}

// Query is a convenience wrapper returning an error for non-SELECT input.
func (e *Engine) Query(query string) (*Result, error) {
	res, err := e.Exec(query)
	if err != nil {
		return nil, err
	}
	if res.Columns == nil {
		return nil, fmt.Errorf("patchindex: statement produced no result set")
	}
	return res, nil
}

// planSelect binds and optimizes a SELECT, recording "bind" and "rewrite"
// trace spans when the context carries an active trace.
func (e *Engine) planSelect(ctx context.Context, s *sql.SelectStmt, opts ExecOptions) (plan.Node, error) {
	at := obs.TraceFromContext(ctx)
	b := &sql.Binder{Cat: e.cat}
	sp := at.StartSpan("bind", -1)
	node, err := b.BindSelect(s)
	at.EndSpan(sp)
	if err != nil {
		return nil, err
	}
	// Access accounting mines the bound plan (before rewrites reshape it) so
	// predicate/sort/group/join column usage reflects what the query asked
	// for, not what the optimizer produced.
	if so := obs.StmtObsFromContext(ctx); so != nil {
		plan.MineAccess(node, so)
	}
	opt := e.newOptimizer(ctx, opts)
	sp = at.StartSpan("rewrite", -1)
	node, err = opt.Optimize(node)
	at.EndSpan(sp)
	return node, err
}

// newOptimizer constructs the statement's optimizer, wiring the workload
// observation (benefit attribution + shadow accounting) when one rides the
// context.
func (e *Engine) newOptimizer(ctx context.Context, opts ExecOptions) *plan.Optimizer {
	return &plan.Optimizer{
		Cat:                  e.cat,
		DisablePatchRewrites: e.cfg.DisablePatchRewrites || opts.DisablePatchRewrites,
		CostBased:            e.cfg.CostBasedRewrites,
		RewritesFired:        e.mRewFired,
		RewritesRejected:     e.mRewRejected,
		Workload:             obs.StmtObsFromContext(ctx),
	}
}

// effectiveParallelism resolves the degree of parallelism for one statement:
// a per-statement override wins, then Config.Parallelism, then serial. The
// result is a concrete degree — 1 means strictly serial plans. Values above
// GOMAXPROCS are allowed: they enable plan splitting, and the executor bounds
// its actual worker pools at GOMAXPROCS (and at the morsel count) on its own.
func (e *Engine) effectiveParallelism(opts ExecOptions) int {
	p := opts.Parallelism
	if p <= 0 {
		p = e.cfg.Parallelism
	}
	if p <= 0 {
		p = 1
	}
	return p
}

// buildPlan lowers a logical plan into the physical operator tree under a
// "build" trace span.
func (e *Engine) buildPlan(ctx context.Context, node plan.Node, opts ExecOptions) (exec.Operator, error) {
	at := obs.TraceFromContext(ctx)
	sp := at.StartSpan("build", -1)
	op, err := plan.Build(node, plan.Config{
		Parallelism:       e.effectiveParallelism(opts),
		DisableScanRanges: e.cfg.DisableScanRanges,
		DisableKernels:    e.cfg.DisableKernels || opts.DisableKernels,
		Workload:          obs.StmtObsFromContext(ctx),
		Spill:             exec.SpillConfig{Dir: e.spillDir(), Limit: e.cfg.SpillBytes},
	})
	at.EndSpan(sp)
	return op, err
}

func (e *Engine) runSelect(ctx context.Context, query string, s *sql.SelectStmt, opts ExecOptions) (*Result, error) {
	node, err := e.planSelectCached(ctx, query, s, opts)
	if err != nil {
		return nil, err
	}
	// Result-cache lookup happens after planning (eligibility is a plan
	// property) but before the build: the caller holds shared latches on
	// every referenced table, so the version stamps read here cover exactly
	// the rows a fresh execution would scan.
	var stamp resultStamp
	if e.resultCache.Enabled() {
		stamp = e.resultStamp(s, node, opts)
		if stamp.ok {
			if res, ok := e.lookupCachedResult(ctx, query, stamp); ok {
				e.mQueries.Inc()
				return res, nil
			}
		}
	}
	op, err := e.buildPlan(ctx, node, opts)
	if err != nil {
		return nil, err
	}
	at := obs.TraceFromContext(ctx)
	execSp := at.StartSpan("execute", -1)
	rows, err := exec.CollectContext(ctx, op)
	at.EndSpan(execSp)
	if err != nil {
		return nil, err
	}
	at.AddPatchHits(exec.AppendOpSpans(at, execSp, op))
	exec.AppendIndexUses(obs.StmtObsFromContext(ctx), op)
	e.mQueries.Inc()
	cols := make([]string, len(node.Schema()))
	for i, c := range node.Schema() {
		cols[i] = c.Name
	}
	res := &Result{Columns: cols, Rows: rows}
	if stamp.ok {
		e.storeCachedResult(query, stamp, opts.Tenant, res)
	}
	return res, nil
}

func (e *Engine) explain(ctx context.Context, s *sql.SelectStmt, opts ExecOptions) (string, error) {
	node, err := e.planSelect(ctx, s, opts)
	if err != nil {
		return "", err
	}
	return plan.Explain(node), nil
}

// explainAnalyze executes the query (discarding its rows) and renders the
// physical operator tree annotated with per-operator runtime statistics next
// to the cost model's estimates. When the statement is traced, the operator
// spans are copied from the same OpStats the rendered text shows, so both
// views report identical timings. EXPLAIN ANALYZE always collects workload
// observations (its own StmtObs when profiling is off), so the trailer shows
// the statement fingerprint, per-index benefit attribution, and shadow
// would-have-helped estimates regardless of the profiler switch.
func (e *Engine) explainAnalyze(ctx context.Context, query string, s *sql.SelectStmt, opts ExecOptions) (string, error) {
	so := obs.StmtObsFromContext(ctx)
	if so == nil {
		so = &obs.StmtObs{}
		ctx = obs.ContextWithStmtObs(ctx, so)
	}
	node, err := e.planSelect(ctx, s, opts)
	if err != nil {
		return "", err
	}
	op, err := e.buildPlan(ctx, node, opts)
	if err != nil {
		return "", err
	}
	at := obs.TraceFromContext(ctx)
	execSp := at.StartSpan("execute", -1)
	start := time.Now()
	n, err := exec.DrainContext(ctx, op)
	elapsed := time.Since(start)
	at.EndSpan(execSp)
	if err != nil {
		return "", err
	}
	at.AddPatchHits(exec.AppendOpSpans(at, execSp, op))
	exec.AppendIndexUses(so, op)
	e.mQueries.Inc()
	var sb strings.Builder
	sb.WriteString(exec.FormatStats(op))
	fmt.Fprintf(&sb, "Execution: %d rows in %s", n, elapsed.Round(time.Microsecond))
	// Workload trailer. These lines are pure key=value so trace rendering,
	// which recognizes operator lines by their "(cost=...)" parenthesis,
	// leaves them alone.
	fp, _ := sql.Fingerprint(query)
	fmt.Fprintf(&sb, "\nfingerprint=%016x", fp)
	for _, rw := range so.Rewrites() {
		fmt.Fprintf(&sb, "\nindex_benefit=%s cost_base=%.1f cost_rewritten=%.1f cost_saved=%.1f",
			benefitTag(rw.Table, rw.Column, rw.Constraint),
			rw.CostBase, rw.CostRewritten, math.Max(0, rw.CostBase-rw.CostRewritten))
	}
	for _, u := range so.IndexUses() {
		fmt.Fprintf(&sb, "\nindex_benefit=%s rows_skipped=%d",
			benefitTag(u.Table, u.Column, u.Constraint), u.RowsSkipped)
		if u.Probes > 0 {
			fmt.Fprintf(&sb, " patch_rows=%d probes=%d", u.PatchRows, u.Probes)
		}
		if u.CostSaved > 0 {
			fmt.Fprintf(&sb, " cost_saved=%.1f", u.CostSaved)
		}
	}
	for _, sh := range so.Shadows() {
		fmt.Fprintf(&sb, "\nshadow_savings=%.1f table=%s column=%s constraint=%s shape=%s",
			sh.Savings, sh.Table, sh.Column, sh.Constraint, sh.Shape)
	}
	return sb.String(), nil
}

// benefitTag renders an index attribution key for EXPLAIN ANALYZE:
// "table.column[constraint]", or "table[constraint]" for table-level
// pseudo-indexes like zone maps.
func benefitTag(table, column, constraint string) string {
	if column == "" {
		return table + "[" + constraint + "]"
	}
	return table + "." + column + "[" + constraint + "]"
}

func (e *Engine) runCreateTable(s *sql.CreateTableStmt) (*Result, error) {
	cols := make([]storage.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = storage.Column{Name: c.Name, Typ: c.Typ}
	}
	parts := s.Partitions
	if parts == 0 {
		parts = e.cfg.DefaultPartitions
	}
	t, err := storage.NewTable(s.Name, storage.NewSchema(cols...), parts)
	if err != nil {
		return nil, err
	}
	if s.SortKey != "" {
		if err := t.SetSortKey(s.SortKey); err != nil {
			return nil, err
		}
	}
	if e.durable() {
		t.AttachCache(e.cache)
	}
	if err := e.cat.AddTable(t); err != nil {
		return nil, err
	}
	if err := e.logCreateTable(t, parts); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("table %s created (%d partitions)", s.Name, parts)}, nil
}

// runInsert coerces every row before it appends anything, so a bad value
// fails the statement with the table untouched. Row n goes to partition
// (base+n) % P, base being the row count before the statement; each
// partition's rows then take the one write path, appendLatched.
func (e *Engine) runInsert(s *sql.InsertStmt) (*Result, error) {
	t, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	base, nparts := t.NumRows(), t.NumPartitions()
	perPart := make([][]*vector.Vector, nparts)
	for n, row := range s.Rows {
		if len(row) != len(schema.Columns) {
			return nil, fmt.Errorf("patchindex: row has %d values, table %s has %d columns", len(row), s.Table, len(schema.Columns))
		}
		part := (base + n) % nparts
		if perPart[part] == nil {
			perPart[part] = make([]*vector.Vector, len(schema.Columns))
			for i, c := range schema.Columns {
				perPart[part][i] = vector.New(c.Typ, len(s.Rows)/nparts+1)
			}
		}
		for i, re := range row {
			lit, ok := re.(*sql.Lit)
			if !ok {
				return nil, fmt.Errorf("patchindex: INSERT supports only literal values")
			}
			v, err := coerce(lit.Val, schema.Columns[i].Typ)
			if err != nil {
				return nil, fmt.Errorf("patchindex: column %s: %w", schema.Columns[i].Name, err)
			}
			if err := perPart[part][i].AppendValue(v); err != nil {
				return nil, err
			}
		}
	}
	// The statement dispatcher already holds the table's exclusive latch.
	for part, cols := range perPart {
		if cols == nil {
			continue
		}
		if err := e.appendLatched(s.Table, part, cols); err != nil {
			return nil, err
		}
	}
	return &Result{Message: fmt.Sprintf("%d rows inserted", len(s.Rows))}, nil
}

// runCopy bulk-loads a CSV file. Empty fields are NULLs; rows are appended
// in chunks rotating across partitions; PatchIndexes on the table are
// incrementally maintained via the same path as Engine.Append.
func (e *Engine) runCopy(s *sql.CopyStmt) (*Result, error) {
	t, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, fmt.Errorf("patchindex: COPY: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReaderSize(f, 1<<20))
	r.ReuseRecord = true
	schema := t.Schema()
	r.FieldsPerRecord = len(schema.Columns)

	const chunkRows = 64 * 1024
	newChunk := func() []*vector.Vector {
		cols := make([]*vector.Vector, len(schema.Columns))
		for i, c := range schema.Columns {
			cols[i] = vector.New(c.Typ, chunkRows)
		}
		return cols
	}
	chunk := newChunk()
	part, total, lineNo := 0, 0, 0
	flush := func() error {
		if chunk[0].Len() == 0 {
			return nil
		}
		// The statement dispatcher already holds the table's exclusive latch.
		if err := e.appendLatched(s.Table, part, chunk); err != nil {
			return err
		}
		part = (part + 1) % t.NumPartitions()
		chunk = newChunk()
		return nil
	}
	first := true
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("patchindex: COPY line %d: %w", lineNo+1, err)
		}
		lineNo++
		if first {
			first = false
			if s.Header {
				continue
			}
		}
		for i, field := range rec {
			if field == "" {
				chunk[i].AppendNull()
				continue
			}
			if err := appendCSVField(chunk[i], schema.Columns[i].Typ, field); err != nil {
				return nil, fmt.Errorf("patchindex: COPY line %d column %s: %w", lineNo, schema.Columns[i].Name, err)
			}
		}
		total++
		if chunk[0].Len() >= chunkRows {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("%d rows copied into %s", total, s.Table)}, nil
}

// appendCSVField parses one CSV field into a column vector.
func appendCSVField(v *vector.Vector, t vector.Type, field string) error {
	switch t {
	case vector.Int64:
		x, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return err
		}
		v.AppendInt64(x)
	case vector.Float64:
		x, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return err
		}
		v.AppendFloat64(x)
	case vector.String:
		v.AppendString(field)
	case vector.Bool:
		switch strings.ToLower(field) {
		case "true", "t", "1", "yes":
			v.AppendBool(true)
		case "false", "f", "0", "no":
			v.AppendBool(false)
		default:
			return fmt.Errorf("invalid boolean %q", field)
		}
	case vector.Date:
		if tm, err := time.Parse("2006-01-02", field); err == nil {
			v.AppendInt64(vector.DateFromTime(tm).I64)
			return nil
		}
		x, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return fmt.Errorf("invalid date %q", field)
		}
		v.AppendInt64(x)
	default:
		return fmt.Errorf("unsupported column type %v", t)
	}
	return nil
}

// coerce adapts a literal to a column type (int→float, int↔date).
func coerce(v vector.Value, t vector.Type) (vector.Value, error) {
	if v.Null {
		return vector.NullValue(t), nil
	}
	if v.Typ == t {
		return v, nil
	}
	switch {
	case t == vector.Float64 && v.Typ == vector.Int64:
		return vector.FloatValue(float64(v.I64)), nil
	case t == vector.Date && v.Typ == vector.Int64:
		return vector.DateValue(v.I64), nil
	case t == vector.Int64 && v.Typ == vector.Date:
		return vector.IntValue(v.I64), nil
	default:
		return vector.Value{}, fmt.Errorf("cannot store %s value in %s column", v.Typ, t)
	}
}

func (e *Engine) runCreatePatchIndex(s *sql.CreatePatchIndexStmt) (*Result, error) {
	constraint := patch.NearlySorted
	if s.Unique {
		constraint = patch.NearlyUnique
	}
	var kind patch.Kind
	switch s.Kind {
	case "identifier":
		kind = patch.Identifier
	case "bitmap":
		kind = patch.Bitmap
	default:
		kind = patch.Auto
	}
	// The statement dispatcher already holds the table's exclusive latch.
	ix, err := e.createPatchIndexLatched(s.Table, s.Column, constraint, discovery.BuildOptions{
		Kind:       kind,
		Threshold:  s.Threshold,
		Descending: s.Descending,
		Force:      s.Force,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("%s created: %d patches (%.2f%% exceptions, %d bytes)",
		ix, ix.Cardinality(), 100*ix.ExceptionRate(), ix.MemoryBytes())}, nil
}

// CreatePatchIndex discovers the constraint on table.column, builds the
// PatchIndex, registers it in the catalog, and logs its creation to the WAL
// ("the determined patches are not written to the WAL in order to keep it
// slim", Section V).
func (e *Engine) CreatePatchIndex(table, column string, c patch.Constraint, opts discovery.BuildOptions) (*patch.Index, error) {
	release := e.acquireLatches(nil, []string{table})
	defer release()
	return e.createPatchIndexLatched(table, column, c, opts)
}

// createPatchIndexLatched is CreatePatchIndex with the table's exclusive
// latch already held by the caller.
func (e *Engine) createPatchIndexLatched(table, column string, c patch.Constraint, opts discovery.BuildOptions) (*patch.Index, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism == 0 {
		// Discovery and patch building honor the engine's configured degree.
		opts.Parallelism = e.effectiveParallelism(ExecOptions{})
	}
	buildStart := time.Now()
	ix, err := discovery.BuildIndex(t, column, c, opts)
	if err != nil {
		return nil, err
	}
	e.mIndexBuilds.Inc()
	e.hIndexBuild.ObserveSince(buildStart)
	if err := e.cat.AddIndex(ix); err != nil {
		return nil, err
	}
	if e.log != nil {
		if err := ix.Save(e.indexPath(table, column, c)); err != nil {
			return nil, fmt.Errorf("patchindex: materializing index: %w", err)
		}
		rec := wal.CreateIndexRecord{
			Table:      table,
			Column:     column,
			Constraint: uint8(c),
			Kind:       uint8(ix.RequestedKind()),
			Threshold:  opts.Threshold,
			Descending: opts.Descending,
		}
		if err := e.log.AppendCreateIndex(rec); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// IndexHealth is the health report of one PatchIndex: how many exceptions
// it carries, how close its patch ratio is to the 1/64 bitmap/identifier
// crossover of Section V, which physical representation its partitions
// currently use, and its memory footprint. The server embeds it in /stats
// so index degradation is visible without running SQL.
type IndexHealth struct {
	Table      string `json:"table"`
	Column     string `json:"column"`
	Constraint string `json:"constraint"`
	// RequestedKind is the representation requested at creation (possibly
	// "auto"); Kinds is what the partitions actually use ("identifier",
	// "bitmap", or "mixed").
	RequestedKind string `json:"requested_kind"`
	Kinds         string `json:"kinds"`
	Patches       int    `json:"patches"`
	Rows          int    `json:"rows"`
	// PatchRatio is |P_c|/|R|; BitmapThreshold is the 1/64 crossover at
	// which the bitmap representation becomes cheaper; ThresholdUtilization
	// is their ratio (>= 1 means the index is past the crossover).
	PatchRatio           float64 `json:"patch_ratio"`
	BitmapThreshold      float64 `json:"bitmap_threshold"`
	ThresholdUtilization float64 `json:"threshold_utilization"`
	MemoryBytes          int     `json:"memory_bytes"`
	// Benefit attribution from the workload observatory (zero when profiling
	// is off or the index was never exercised). Rewrites is undecayed;
	// RowsSkipped, CostSaved and TimeSavedNanos decay with the benefit
	// half-life; LastUsedTick is the engine-relative statement tick of the
	// last use — monotonic across snapshots, unlike a wall clock.
	Rewrites       int64   `json:"rewrites"`
	RowsSkipped    float64 `json:"rows_skipped"`
	CostSaved      float64 `json:"cost_saved"`
	TimeSavedNanos float64 `json:"time_saved_nanos"`
	LastUsedTick   int64   `json:"last_used_tick"`
	// Zone-map staleness of the index's table: rows appended (and
	// partitions touched) since the last zone recompute. A second
	// degradation signal next to PatchRatio — appends widen zone entries in
	// place but never re-derive them.
	ZoneStaleRows       int `json:"zone_stale_rows"`
	ZoneStalePartitions int `json:"zone_stale_partitions"`
}

// IndexHealth reports the health of every PatchIndex, sorted by (table,
// column, constraint). It reads only the internally-synchronized catalog
// and index structures, so it is cheap enough to serve on every /stats hit.
func (e *Engine) IndexHealth() []IndexHealth {
	indexes := e.cat.Indexes()
	tick := e.profiler.Tick()
	out := make([]IndexHealth, 0, len(indexes))
	for _, ix := range indexes {
		h := IndexHealth{
			Table:           ix.Table(),
			Column:          ix.Column(),
			Constraint:      ix.Constraint().String(),
			RequestedKind:   ix.RequestedKind().String(),
			Patches:         ix.Cardinality(),
			Rows:            ix.NumRows(),
			BitmapThreshold: patch.CrossoverRate,
			MemoryBytes:     ix.MemoryBytes(),
		}
		tag := "nuc"
		if ix.Constraint() == patch.NearlySorted {
			tag = "nsc"
		}
		if b, ok := e.profiler.Benefit().Lookup(ix.Table(), ix.Column(), tag, tick); ok {
			h.Rewrites = b.Rewrites
			h.RowsSkipped = b.RowsSkipped
			h.CostSaved = b.CostSaved
			h.TimeSavedNanos = b.TimeSavedNanos
			h.LastUsedTick = b.LastUsedTick
		}
		if h.Rows > 0 {
			h.PatchRatio = float64(h.Patches) / float64(h.Rows)
			h.ThresholdUtilization = h.PatchRatio / patch.CrossoverRate
		}
		if t, err := e.cat.Table(ix.Table()); err == nil {
			h.ZoneStaleRows, h.ZoneStalePartitions = t.ZoneStaleness()
		}
		kinds := map[patch.Kind]bool{}
		for p := 0; p < ix.NumPartitions(); p++ {
			if set := ix.Partition(p); set != nil {
				kinds[set.Kind()] = true
			}
		}
		switch {
		case len(kinds) > 1:
			h.Kinds = "mixed"
		case len(kinds) == 1:
			for k := range kinds {
				h.Kinds = k.String()
			}
		default:
			h.Kinds = "unbuilt"
		}
		out = append(out, h)
	}
	return out
}

// Advise runs the constraint advisor over a table (under a shared latch, so
// it can run concurrently with queries but not with writers).
func (e *Engine) Advise(table string, cfg discovery.AdvisorConfig) ([]discovery.Proposal, error) {
	release := e.acquireLatches([]string{table}, nil)
	defer release()
	t, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	return discovery.Advise(t, cfg), nil
}

// LoadColumns is Append under the name benchmark/README.md freezes; it
// maintains PatchIndexes like every other write.
func (e *Engine) LoadColumns(table string, part int, cols []*vector.Vector) error {
	return e.Append(table, part, cols)
}

// Append appends whole column vectors into one partition of a table while
// incrementally maintaining every PatchIndex defined on it — the paper's
// future-work insert support, without a full table scan. The first Append
// after an index change scans once to (re)build the maintenance state.
func (e *Engine) Append(table string, part int, cols []*vector.Vector) error {
	release := e.acquireLatches(nil, []string{table})
	defer release()
	return e.appendLatched(table, part, cols)
}

// appendLatched is the engine's one write path: INSERT, COPY, Append,
// LoadColumns and WAL replay all add rows here, so every write appends,
// maintains every PatchIndex on the table and is logged in one place. The
// caller holds the table's exclusive latch. The maintainer cache checks
// itself: a cached Set is reused only while it covers this very table and
// index list, so DDL and replay never have to invalidate it. A Set that went
// stale keeps its memory until the next append under the table's name.
func (e *Engine) appendLatched(table string, part int, cols []*vector.Vector) error {
	t, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	var indexes []*patch.Index
	for _, ix := range e.cat.Indexes() {
		if ix.Table() == table {
			indexes = append(indexes, ix)
		}
	}
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	set := e.maintainers[table]
	if set == nil || !set.Covers(t, indexes) {
		if set, err = maintain.NewSet(t, indexes); err != nil {
			return err
		}
		set.SetMetrics(e.metrics)
		e.maintainers[table] = set
	}
	if err := set.Append(part, cols); err != nil {
		return err
	}
	return e.logAppend(table, part, cols)
}
