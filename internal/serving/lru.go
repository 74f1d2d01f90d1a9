package serving

import (
	"container/list"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"patchindex/internal/obs"
)

// cacheKey identifies a cached entry: raw statement text plus the options
// that change what it means. Raw text (not the literal-stripped
// fingerprint) is required because sql.Fingerprint collapses literals to
// '?', and two statements differing only in literals must never share a
// plan or result.
type cacheKey struct {
	text string
	opts OptsKey
}

type lruEntry struct {
	key   cacheKey
	stamp []uint64
	owner string
	cost  int64
	value any
}

// lru is the bounded least-recently-used map behind both serving caches.
// Every entry carries a validity stamp (the catalog epoch for plans, the
// per-table version vector for results): a get with a different stamp
// drops the entry and counts it as stale. Entries cost against one budget
// (1 per plan, bytes per result); optional per-owner caps, used by
// result-cache tenants, are enforced first, so a noisy owner evicts its own
// entries before anyone else's. One mutex guards the whole map: a hit holds
// it for a map lookup and a list move, far less than a statement parse.
type lru struct {
	enabled atomic.Bool

	mu        sync.Mutex
	budget    int64
	used      int64
	items     map[cacheKey]*list.Element // values are *lruEntry
	order     *list.List                 // front = most recently used
	ownerUsed map[string]int64
	ownerCap  map[string]int64

	hits, misses, evictions, stale *obs.Counter
	entries, cost                  *obs.Gauge // cost is nil when unpublished
}

// newLRU creates a disabled cache and registers prefix.{hits, misses,
// evictions, entries}, prefix.<staleName>, and prefix.<costName> when
// costName is not empty.
func newLRU(budget int64, reg *obs.Registry, prefix, staleName, costName string) *lru {
	l := &lru{
		budget:    budget,
		items:     make(map[cacheKey]*list.Element),
		order:     list.New(),
		ownerUsed: make(map[string]int64),
		ownerCap:  make(map[string]int64),
		hits:      reg.Counter(prefix + ".hits"),
		misses:    reg.Counter(prefix + ".misses"),
		evictions: reg.Counter(prefix + ".evictions"),
		stale:     reg.Counter(prefix + "." + staleName),
		entries:   reg.Gauge(prefix + ".entries"),
	}
	if costName != "" {
		l.cost = reg.Gauge(prefix + "." + costName)
	}
	return l
}

// get returns the value cached under k if its stamp still matches; a
// mismatched entry is dropped.
func (l *lru) get(k cacheKey, stamp []uint64) (any, bool) {
	l.mu.Lock()
	el, ok := l.items[k]
	if !ok {
		l.mu.Unlock()
		l.misses.Inc()
		return nil, false
	}
	e := el.Value.(*lruEntry)
	if !slices.Equal(e.stamp, stamp) {
		l.removeLocked(el)
		l.mu.Unlock()
		l.stale.Inc()
		l.misses.Inc()
		return nil, false
	}
	l.order.MoveToFront(el)
	l.mu.Unlock()
	l.hits.Inc()
	return e.value, true
}

// put stores value under k, replacing any entry there, then evicts least
// recently used entries — the owner's own first while over its cap — until
// cost fits. It stores and evicts nothing, and reports false, when cost
// alone exceeds the owner's cap.
func (l *lru) put(k cacheKey, stamp []uint64, owner string, cost int64, value any) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	ownerCap, capped := l.ownerCap[owner]
	if capped && cost > ownerCap {
		return false
	}
	if el, ok := l.items[k]; ok {
		l.removeLocked(el)
	}
	for el := l.order.Back(); el != nil && capped && l.ownerUsed[owner]+cost > ownerCap; {
		prev := el.Prev()
		if el.Value.(*lruEntry).owner == owner {
			l.evictLocked(el)
		}
		el = prev
	}
	for l.used+cost > l.budget && l.order.Len() > 0 {
		l.evictLocked(l.order.Back())
	}
	e := &lruEntry{key: k, stamp: slices.Clone(stamp), owner: owner, cost: cost, value: value}
	l.items[k] = l.order.PushFront(e)
	l.used += cost
	l.ownerUsed[owner] += cost
	l.publishLocked()
	return true
}

// setOwnerCap caps the cost one owner's entries may occupy (0 removes the
// cap; the budget still applies).
func (l *lru) setOwnerCap(owner string, limit int64) {
	l.mu.Lock()
	if limit <= 0 {
		delete(l.ownerCap, owner)
	} else {
		l.ownerCap[owner] = limit
	}
	l.mu.Unlock()
}

// stats returns the entry count, the total cost and a copy of the cost per
// owner, read together.
func (l *lru) stats() (n int, used int64, byOwner map[string]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len(), l.used, maps.Clone(l.ownerUsed)
}

func (l *lru) evictLocked(el *list.Element) {
	l.removeLocked(el)
	l.evictions.Inc()
}

// removeLocked unlinks el and releases its cost. Caller holds l.mu.
func (l *lru) removeLocked(el *list.Element) {
	e := l.order.Remove(el).(*lruEntry)
	delete(l.items, e.key)
	l.used -= e.cost
	if l.ownerUsed[e.owner] -= e.cost; l.ownerUsed[e.owner] <= 0 {
		delete(l.ownerUsed, e.owner)
	}
	l.publishLocked()
}

func (l *lru) publishLocked() {
	l.entries.Set(int64(l.order.Len()))
	l.cost.Set(l.used)
}
