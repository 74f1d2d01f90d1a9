package patchindex

// Serving fast path: the engine side of internal/serving. The plan cache
// stores bound+optimized logical plans keyed on raw statement text and the
// rewrite toggle, valid for exactly one catalog epoch; the result cache
// stores materialized rows keyed additionally on the per-table version
// stamp vector. Both are consulted only while the statement's shared table
// latches are held (execPrepared latches before planning, for Exec and
// DrainWith alike), which is what makes the validity checks sound: DDL,
// tuner actions, and appends on the referenced tables all require the
// exclusive latch, so an epoch or version observed under the shared latch
// cannot change before the plan finishes executing. Epoch bumps on
// *unrelated* tables only cause spurious plan-cache misses, never stale
// hits.

import (
	"context"
	"sort"

	"patchindex/internal/obs"
	"patchindex/internal/plan"
	"patchindex/internal/serving"
	"patchindex/internal/sql"
	"patchindex/internal/vector"
)

// cachedPlan is the plan-cache payload: the optimized logical plan plus
// the plan-time workload observations captured at miss time. plan.Build
// never mutates the logical node tree (zone pruning and parallel splitting
// happen per build), so one node serves arbitrarily many executions.
type cachedPlan struct {
	node     plan.Node
	accesses []obs.ColumnAccess
	rewrites []obs.RewriteNote
	shadows  []obs.ShadowNote
}

// replay feeds the captured plan-time observations into a hit's StmtObs so
// the workload observatory, benefit attribution, and shadow accounting see
// cached statements exactly as they see freshly planned ones.
func (c *cachedPlan) replay(so *obs.StmtObs) {
	if so == nil {
		return
	}
	for _, a := range c.accesses {
		so.AddAccess(a)
	}
	for _, r := range c.rewrites {
		so.AddRewrite(r)
	}
	for _, s := range c.shadows {
		so.AddShadow(s)
	}
}

// cachedResult is the result-cache payload. Columns and Rows are shared
// (never mutated after materialization); each hit wraps them in a fresh
// Result so per-statement fields (Duration, TraceID) stay per-execution.
type cachedResult struct {
	columns []string
	rows    [][]vector.Value
	bytes   int64
}

// planOptsKey derives the cache key bits from the session options. The
// plan cache only needs the rewrite toggle (parallelism and kernels are
// applied at build time, after the cached logical plan); the result cache
// uses the full key since parallel execution can change unordered layouts.
func (e *Engine) planOptsKey(opts ExecOptions) serving.OptsKey {
	return serving.OptsKey{
		DisableRewrites: e.cfg.DisablePatchRewrites || opts.DisablePatchRewrites,
	}
}

func (e *Engine) resultOptsKey(opts ExecOptions) serving.OptsKey {
	return serving.OptsKey{
		DisableRewrites: e.cfg.DisablePatchRewrites || opts.DisablePatchRewrites,
		DisableKernels:  opts.DisableKernels,
		Parallelism:     e.effectiveParallelism(opts),
	}
}

// planSelectCached is planSelect behind the epoch-checked plan cache. The
// caller must hold (at least shared) latches on every table the statement
// references; the epoch read under those latches pins the index set for
// the statement's whole execution.
func (e *Engine) planSelectCached(ctx context.Context, query string, s *sql.SelectStmt, opts ExecOptions) (plan.Node, error) {
	if !e.planCache.Enabled() {
		return e.planSelect(ctx, s, opts)
	}
	key := e.planOptsKey(opts)
	epoch := e.cat.Epoch()
	at := obs.TraceFromContext(ctx)
	if v, ok := e.planCache.Get(query, key, epoch); ok {
		sp := at.StartSpan("plan_cache", -1)
		cp := v.(*cachedPlan)
		cp.replay(obs.StmtObsFromContext(ctx))
		at.EndSpan(sp)
		return cp.node, nil
	}
	// Miss: plan with a dedicated StmtObs so the plan-time observations can
	// be captured for replay, then forward them to the statement's own
	// observation (when profiling is on).
	planObs := &obs.StmtObs{}
	node, err := e.planSelect(obs.ContextWithStmtObs(ctx, planObs), s, opts)
	if err != nil {
		return nil, err
	}
	cp := &cachedPlan{
		node:     node,
		accesses: planObs.Accesses(),
		rewrites: planObs.Rewrites(),
		shadows:  planObs.Shadows(),
	}
	cp.replay(obs.StmtObsFromContext(ctx))
	e.planCache.Put(query, key, epoch, cp)
	return node, nil
}

// resultStamp is the validity key of one result-cache entry: the version
// stamps of every referenced table, in sorted table order. ok is false
// when the statement is not result-cacheable.
type resultStamp struct {
	ok       bool
	key      serving.OptsKey
	versions []uint64
}

// resultStamp decides cacheability and snapshots the referenced tables'
// version stamps. Only plans whose row order plan.PropsOf calls Stable
// qualify: any other plan could legally return its rows in a different
// order on re-execution, so a cached copy would not be byte-identical to a
// fresh one.
func (e *Engine) resultStamp(s *sql.SelectStmt, node plan.Node, opts ExecOptions) resultStamp {
	if !plan.PropsOf(node).Stable {
		return resultStamp{}
	}
	tables := selectTables(s, nil)
	if len(tables) == 0 {
		return resultStamp{}
	}
	sort.Strings(tables)
	versions := make([]uint64, 0, len(tables))
	prev := ""
	for _, name := range tables {
		if name == prev {
			continue
		}
		prev = name
		t, err := e.cat.Table(name)
		if err != nil {
			return resultStamp{}
		}
		versions = append(versions, t.Version())
	}
	return resultStamp{ok: true, key: e.resultOptsKey(opts), versions: versions}
}

func (e *Engine) lookupCachedResult(ctx context.Context, query string, stamp resultStamp) (*Result, bool) {
	v, ok := e.resultCache.Get(query, stamp.key, stamp.versions)
	if !ok {
		return nil, false
	}
	cr := v.(*cachedResult)
	at := obs.TraceFromContext(ctx)
	sp := at.StartSpan("result_cache", -1)
	at.EndSpan(sp)
	return &Result{Columns: cr.columns, Rows: cr.rows}, true
}

func (e *Engine) storeCachedResult(query string, stamp resultStamp, tenant string, res *Result) {
	if tenant == "" {
		tenant = serving.DefaultTenant
	}
	cr := &cachedResult{columns: res.Columns, rows: res.Rows, bytes: estimateResultBytes(res)}
	e.resultCache.Put(query, stamp.key, stamp.versions, tenant, cr.bytes, cr)
}

// estimateResultBytes approximates a result's resident size for the byte
// budget: per-value struct size plus string payloads, plus slice headers.
func estimateResultBytes(res *Result) int64 {
	const valueSize = 48 // sizeof(vector.Value): Type+bool+int64+float64+string header+bool, padded
	size := int64(64)
	for _, c := range res.Columns {
		size += int64(len(c)) + 16
	}
	for _, row := range res.Rows {
		size += 24 + int64(len(row))*valueSize
		for _, v := range row {
			size += int64(len(v.Str))
		}
	}
	return size
}

// PlanCache returns the engine's serving plan cache (never nil; disabled
// unless Config.PlanCache).
func (e *Engine) PlanCache() *serving.PlanCache { return e.planCache }

// ResultCache returns the engine's serving result cache (never nil;
// disabled unless Config.ResultCache).
func (e *Engine) ResultCache() *serving.ResultCache { return e.resultCache }

// ServingStats is the /stats serving section.
type ServingStats struct {
	PlanCache   serving.PlanCacheStats   `json:"plan_cache"`
	ResultCache serving.ResultCacheStats `json:"result_cache"`
}

// ServingStats snapshots both serving caches.
func (e *Engine) ServingStats() ServingStats {
	return ServingStats{
		PlanCache:   e.planCache.Stats(),
		ResultCache: e.resultCache.Stats(),
	}
}
