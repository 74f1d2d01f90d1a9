package serving

import "patchindex/internal/obs"

// DefaultPlanCacheSize is the bound-plan entries kept when the cache is
// enabled without an explicit size.
const DefaultPlanCacheSize = 512

// PlanCache is a bounded LRU map from (statement text, options) to an
// opaque bound-plan payload. Entries are valid for exactly one catalog
// epoch: a Get with a different epoch evicts the entry and reports a miss,
// so DDL, tuner create/drop/rebuild, and any other epoch-bumping event
// invalidates every cached plan at once without scanning.
type PlanCache struct {
	lru *lru
}

// NewPlanCache creates a disabled plan cache holding up to size entries
// (DefaultPlanCacheSize when size <= 0) and registers its metrics. A nil
// registry gets a private one so the cache is always safe to use.
func NewPlanCache(size int, reg *obs.Registry) *PlanCache {
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &PlanCache{lru: newLRU(int64(size), reg, "serving.plan_cache", "invalidations", "")}
}

// SetEnabled flips the cache on or off. Disabling does not drop entries;
// they simply stop being served (and age out by LRU once re-enabled).
func (c *PlanCache) SetEnabled(on bool) {
	if c != nil {
		c.lru.enabled.Store(on)
	}
}

// Enabled reports whether the cache serves entries. This is the entire
// disabled-path cost: one atomic load (the CI bench gates it under
// 50ns/stmt together with the call overhead).
func (c *PlanCache) Enabled() bool { return c != nil && c.lru.enabled.Load() }

// Get returns the payload cached for (text, opts) at the given epoch.
// An entry from an older epoch is dropped and counted as an invalidation.
// The caller must read epoch under whatever synchronization makes the
// payload safe to execute (the engine holds shared table latches).
func (c *PlanCache) Get(text string, opts OptsKey, epoch uint64) (any, bool) {
	if !c.Enabled() {
		return nil, false
	}
	return c.lru.get(cacheKey{text, opts}, []uint64{epoch})
}

// Put stores the payload for (text, opts) at the given epoch, replacing
// any same-key entry and evicting the least recently used entry when full.
func (c *PlanCache) Put(text string, opts OptsKey, epoch uint64, value any) {
	if c.Enabled() {
		c.lru.put(cacheKey{text, opts}, []uint64{epoch}, "", 1, value)
	}
}

// Len returns the number of cached entries.
func (c *PlanCache) Len() int {
	n, _, _ := c.lru.stats()
	return n
}

// PlanCacheStats is the /stats serving section for the plan cache.
type PlanCacheStats struct {
	Enabled       bool   `json:"enabled"`
	Entries       int    `json:"entries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	return PlanCacheStats{
		Enabled:       c.Enabled(),
		Entries:       c.Len(),
		Hits:          uint64(c.lru.hits.Value()),
		Misses:        uint64(c.lru.misses.Value()),
		Evictions:     uint64(c.lru.evictions.Value()),
		Invalidations: uint64(c.lru.stale.Value()),
	}
}
