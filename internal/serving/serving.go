// Package serving implements the multi-tenant serving fast path: an
// epoch-invalidated bound-plan cache, a versioned byte-budget result cache,
// and per-tenant QoS (token-bucket rate limits, in-flight caps, and priority
// classes used for graduated admission shedding).
//
// Both caches are thin constructors over one LRU type (lru.go): a single
// mutex-guarded map keyed on (statement text, options) whose entries carry
// a validity stamp and a cost against an exact budget. The caches are
// deliberately value-agnostic: they store `any` payloads so the package
// depends only on internal/obs. The engine owns the concrete cached
// plan/result types and all validity reasoning (catalog epochs, per-table
// version stamps); this package owns bounding, eviction, and metric
// accounting. Both caches sit on the per-statement hot path, so the
// disabled path is a single atomic load with no locking or hashing.
package serving

// OptsKey packs the session-relevant execution options that change what a
// cached entry means. Rewrite toggles select different plans; parallelism
// and kernel toggles can change unordered result layouts, so the result
// cache includes them too.
type OptsKey struct {
	DisableRewrites bool
	DisableKernels  bool
	Parallelism     int
}
