package serving

import "patchindex/internal/obs"

// DefaultResultCacheBytes is the byte budget used when the result cache is
// enabled without an explicit size.
const DefaultResultCacheBytes = 32 << 20 // 32 MiB

// ResultCache caches materialized read-only results keyed on (statement
// text, options, per-table version stamp vector). A Get whose stamp vector
// differs from the cached one proves the underlying tables changed; the
// entry is dropped and the miss is counted as a stale eviction, so readers
// can never observe pre-append rows. Eviction is LRU under a global byte
// budget, with optional per-tenant byte budgets enforced first (a noisy
// tenant evicts its own entries before anyone else's). Entries larger than
// maxEntry (budget/8) or than their tenant's budget bypass the cache
// entirely, evicting nothing.
type ResultCache struct {
	lru      *lru
	maxEntry int64
	bypass   *obs.Counter
}

// NewResultCache creates a disabled result cache with the given byte
// budget (DefaultResultCacheBytes when <= 0) and registers its metrics.
func NewResultCache(budgetBytes int64, reg *obs.Registry) *ResultCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultResultCacheBytes
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := newLRU(budgetBytes, reg, "serving.result_cache", "stale_evictions", "bytes")
	return &ResultCache{
		lru:      l,
		maxEntry: budgetBytes / 8,
		bypass:   reg.Counter("serving.result_cache.bypass"),
	}
}

// SetEnabled flips the cache on or off.
func (c *ResultCache) SetEnabled(on bool) {
	if c != nil {
		c.lru.enabled.Store(on)
	}
}

// Enabled reports whether the cache serves entries (one atomic load).
func (c *ResultCache) Enabled() bool { return c != nil && c.lru.enabled.Load() }

// SetTenantBudget caps the bytes one tenant's results may occupy (0 removes
// the cap; the global budget still applies). The server wires QoS memory
// limits through here at startup.
func (c *ResultCache) SetTenantBudget(tenant string, bytes int64) {
	if c != nil {
		c.lru.setOwnerCap(tenant, bytes)
	}
}

// Get returns the result cached for (text, opts) if its version stamp
// vector still matches; a mismatch drops the stale entry. The caller must
// read versions under shared table latches so writers (which hold the
// exclusive latch while bumping versions) cannot interleave.
func (c *ResultCache) Get(text string, opts OptsKey, versions []uint64) (any, bool) {
	if !c.Enabled() {
		return nil, false
	}
	return c.lru.get(cacheKey{text, opts}, versions)
}

// Put stores a result for (text, opts) at the given version stamps,
// attributing its bytes to tenant. Oversized results are bypassed.
func (c *ResultCache) Put(text string, opts OptsKey, versions []uint64, tenant string, size int64, value any) {
	if !c.Enabled() {
		return
	}
	if size <= 0 {
		size = 1
	}
	if size > c.maxEntry || !c.lru.put(cacheKey{text, opts}, versions, tenant, size, value) {
		c.bypass.Inc()
	}
}

// ResultCacheStats is the /stats serving section for the result cache.
type ResultCacheStats struct {
	Enabled        bool             `json:"enabled"`
	Entries        int              `json:"entries"`
	Bytes          int64            `json:"bytes"`
	BudgetBytes    int64            `json:"budget_bytes"`
	Hits           uint64           `json:"hits"`
	Misses         uint64           `json:"misses"`
	Evictions      uint64           `json:"evictions"`
	StaleEvictions uint64           `json:"stale_evictions"`
	Bypassed       uint64           `json:"bypassed"`
	BytesByTenant  map[string]int64 `json:"bytes_by_tenant,omitempty"`
}

// Stats snapshots the cache counters and per-tenant byte accounting.
func (c *ResultCache) Stats() ResultCacheStats {
	if c == nil {
		return ResultCacheStats{}
	}
	n, used, byTenant := c.lru.stats()
	return ResultCacheStats{
		Enabled:        c.Enabled(),
		Entries:        n,
		Bytes:          used,
		BudgetBytes:    c.lru.budget,
		Hits:           uint64(c.lru.hits.Value()),
		Misses:         uint64(c.lru.misses.Value()),
		Evictions:      uint64(c.lru.evictions.Value()),
		StaleEvictions: uint64(c.lru.stale.Value()),
		Bypassed:       uint64(c.bypass.Value()),
		BytesByTenant:  byTenant,
	}
}
