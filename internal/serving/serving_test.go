package serving

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"patchindex/internal/obs"
)

func TestPlanCacheBasic(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewPlanCache(64, reg)
	opts := OptsKey{}

	if _, ok := c.Get("q1", opts, 1); ok {
		t.Fatal("disabled cache must miss")
	}
	c.Put("q1", opts, 1, "v1")
	if c.Len() != 0 {
		t.Fatal("disabled cache must not store")
	}

	c.SetEnabled(true)
	c.Put("q1", opts, 1, "v1")
	v, ok := c.Get("q1", opts, 1)
	if !ok || v.(string) != "v1" {
		t.Fatalf("expected hit v1, got %v %v", v, ok)
	}
	// Different options are a different key.
	if _, ok := c.Get("q1", OptsKey{DisableRewrites: true}, 1); ok {
		t.Fatal("options must partition the key space")
	}
	// Epoch bump invalidates.
	if _, ok := c.Get("q1", opts, 2); ok {
		t.Fatal("stale-epoch entry must miss")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry must be dropped, len=%d", c.Len())
	}
	// Replacement at the new epoch.
	c.Put("q1", opts, 2, "v2")
	if v, ok := c.Get("q1", opts, 2); !ok || v.(string) != "v2" {
		t.Fatalf("expected v2 after re-put, got %v %v", v, ok)
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2, nil)
	c.SetEnabled(true)
	c.Put("a", OptsKey{}, 1, "a")
	c.Put("b", OptsKey{}, 1, "b")
	if _, ok := c.Get("a", OptsKey{}, 1); !ok {
		t.Fatal("a must be cached")
	}
	c.Put("c", OptsKey{}, 1, "c") // b is now least recently used
	if _, ok := c.Get("b", OptsKey{}, 1); ok {
		t.Fatal("least recently used entry b must have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if v, ok := c.Get(k, OptsKey{}, 1); !ok || v.(string) != k {
			t.Fatalf("%s must survive, got %v %v", k, v, ok)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
}

// TestPlanCacheExactBound: the size bounds the whole cache, not a share of
// it per shard, so a cache never evicts below and never holds above it.
func TestPlanCacheExactBound(t *testing.T) {
	c := NewPlanCache(512, nil)
	c.SetEnabled(true)
	for i := 0; i < 500; i++ {
		c.Put(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE a = %d", i), OptsKey{}, 1, i)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 500 {
		t.Fatalf("500 statements into 512 entries: %+v, want 0 evictions", st)
	}

	small := NewPlanCache(4, nil)
	small.SetEnabled(true)
	for i := 0; i < 100; i++ {
		small.Put(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE a = %d", i), OptsKey{}, 1, i)
		if n := small.Len(); n > 4 {
			t.Fatalf("4-entry cache holds %d after %d puts", n, i+1)
		}
	}
	if st := small.Stats(); st.Entries != 4 || st.Evictions != 96 {
		t.Fatalf("4-entry cache after 100 puts: %+v", st)
	}
}

func TestPlanCacheConcurrency(t *testing.T) {
	c := NewPlanCache(256, nil)
	c.SetEnabled(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				text := fmt.Sprintf("SELECT %d", i%40)
				epoch := uint64(i % 3)
				if v, ok := c.Get(text, OptsKey{}, epoch); ok && v.(string) != text {
					t.Errorf("wrong value %v for %q", v, text)
					return
				}
				c.Put(text, OptsKey{}, epoch, text)
			}
		}(g)
	}
	wg.Wait()
}

func TestResultCacheVersionInvalidation(t *testing.T) {
	c := NewResultCache(1<<20, nil)
	c.SetEnabled(true)
	opts := OptsKey{}
	c.Put("q", opts, []uint64{10, 20}, "t1", 100, "rows-v1")
	if v, ok := c.Get("q", opts, []uint64{10, 20}); !ok || v.(string) != "rows-v1" {
		t.Fatalf("expected hit, got %v %v", v, ok)
	}
	// A bumped table version must drop the entry (stale).
	if _, ok := c.Get("q", opts, []uint64{10, 21}); ok {
		t.Fatal("stale versions must miss")
	}
	if _, ok := c.Get("q", opts, []uint64{10, 20}); ok {
		t.Fatal("stale entry must have been dropped, not resurrected")
	}
	st := c.Stats()
	if st.StaleEvictions != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestResultCacheByteBudget(t *testing.T) {
	c := NewResultCache(1000, nil)
	c.SetEnabled(true)
	opts := OptsKey{}
	// maxEntry = 125; anything larger bypasses.
	c.Put("big", opts, nil, "t", 500, "x")
	if _, ok := c.Get("big", opts, nil); ok {
		t.Fatal("oversized entry must bypass")
	}
	for i := 0; i < 12; i++ {
		c.Put(fmt.Sprintf("q%d", i), opts, nil, "t", 100, i)
	}
	st := c.Stats()
	if st.Bytes > 1000 {
		t.Fatalf("budget exceeded: %d bytes", st.Bytes)
	}
	if st.Entries != 10 || st.Evictions != 2 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// Oldest entries were evicted, newest survive.
	if _, ok := c.Get("q0", opts, nil); ok {
		t.Fatal("q0 should have been evicted")
	}
	if _, ok := c.Get("q11", opts, nil); !ok {
		t.Fatal("q11 should survive")
	}
}

func TestResultCacheTenantBudget(t *testing.T) {
	c := NewResultCache(10_000, nil)
	c.SetEnabled(true)
	c.SetTenantBudget("small", 250)
	opts := OptsKey{}
	c.Put("a", opts, nil, "small", 100, "a")
	c.Put("b", opts, nil, "small", 100, "b")
	c.Put("c", opts, nil, "small", 100, "c") // evicts "a" (tenant budget)
	if _, ok := c.Get("a", opts, nil); ok {
		t.Fatal("tenant budget should have evicted a")
	}
	if _, ok := c.Get("c", opts, nil); !ok {
		t.Fatal("c should be cached")
	}
	if got := c.Stats().BytesByTenant["small"]; got != 200 {
		t.Fatalf("tenant bytes = %d, want 200", got)
	}
	// Other tenants are unaffected.
	c.Put("d", opts, nil, "other", 100, "d")
	if _, ok := c.Get("d", opts, nil); !ok {
		t.Fatal("other tenant should cache freely")
	}
	// An entry larger than the tenant budget bypasses without touching
	// other tenants' entries.
	c.Put("huge", opts, nil, "small", 300, "huge")
	if _, ok := c.Get("huge", opts, nil); ok {
		t.Fatal("over-tenant-budget entry must bypass")
	}
	if _, ok := c.Get("d", opts, nil); !ok {
		t.Fatal("other tenant entry must survive")
	}
	// ...nor the tenant's own: bypassing evicts nothing.
	if _, ok := c.Get("c", opts, nil); !ok {
		t.Fatal("tenant entry c must survive an over-budget bypass")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bypassed != 1 {
		t.Fatalf("stats = %+v, want 1 eviction (a) and 1 bypass (huge)", st)
	}
}

func TestQoSTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	q := NewQoS(TenantLimits{}, map[string]TenantLimits{
		"batch": {RatePerSec: 2, Burst: 2},
	}, nil)
	q.SetClock(func() time.Time { return now })

	// Burst of 2 admits twice, then throttles.
	for i := 0; i < 2; i++ {
		rel, err := q.Admit("batch")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		rel()
	}
	if _, err := q.Admit("batch"); err != ErrThrottled {
		t.Fatalf("expected ErrThrottled, got %v", err)
	}
	// Half a second refills one token.
	now = now.Add(500 * time.Millisecond)
	rel, err := q.Admit("batch")
	if err != nil {
		t.Fatalf("after refill: %v", err)
	}
	rel()
	if _, err := q.Admit("batch"); err != ErrThrottled {
		t.Fatalf("bucket should be dry again, got %v", err)
	}
	// Default tenant is unlimited.
	for i := 0; i < 100; i++ {
		rel, err := q.Admit("dash")
		if err != nil {
			t.Fatalf("unlimited tenant throttled: %v", err)
		}
		rel()
	}
	snaps := q.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("expected 2 tenants, got %d", len(snaps))
	}
	if snaps[0].Tenant != "batch" || snaps[0].Shed != 2 || snaps[0].Admitted != 3 {
		t.Fatalf("batch snapshot: %+v", snaps[0])
	}
}

func TestQoSInFlightCap(t *testing.T) {
	q := NewQoS(TenantLimits{MaxInFlight: 2}, nil, nil)
	r1, err := q.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Admit("t"); err != ErrTenantBusy {
		t.Fatalf("expected ErrTenantBusy, got %v", err)
	}
	r1()
	r3, err := q.Admit("t")
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r3()
	r2()
	if got := q.Snapshot()[0].InFlight; got != 0 {
		t.Fatalf("in-flight = %d after all releases", got)
	}
}

func TestQoSPriorityAndNil(t *testing.T) {
	q := NewQoS(TenantLimits{Priority: "low"}, map[string]TenantLimits{
		"dash": {Priority: "high"},
	}, nil)
	if q.Priority("dash") != PriorityHigh || q.Priority("anyone") != PriorityLow {
		t.Fatal("priority resolution wrong")
	}
	var nilQ *QoS
	rel, err := nilQ.Admit("x")
	if err != nil {
		t.Fatal("nil QoS must admit")
	}
	rel()
	if nilQ.Priority("x") != PriorityNormal {
		t.Fatal("nil QoS priority must be normal")
	}
	nilQ.Shed("x") // must not panic
}

func TestQoSMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	q := NewQoS(TenantLimits{RatePerSec: 0.0001, Burst: 1}, nil, reg)
	rel, err := q.Admit("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Admit("acme"); err == nil {
		t.Fatal("second admit should throttle")
	}
	rel()
	snap := reg.Snapshot()
	if snap.Counters["tenant.acme.shed"] != 1 {
		t.Fatalf("tenant.acme.shed = %d", snap.Counters["tenant.acme.shed"])
	}
	if snap.Counters["tenant.acme.admitted"] != 1 {
		t.Fatalf("tenant.acme.admitted = %d", snap.Counters["tenant.acme.admitted"])
	}
	if _, ok := snap.Gauges["tenant.acme.in_flight"]; !ok {
		t.Fatal("tenant.acme.in_flight gauge missing")
	}
}

// BenchmarkPlanCacheDisabledPath gates the cost a disabled plan cache adds
// to every statement; CI asserts < 50ns/op like the profiler and sampler
// disabled-path gates.
func BenchmarkPlanCacheDisabledPath(b *testing.B) {
	c := NewPlanCache(64, nil)
	opts := OptsKey{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("SELECT COUNT(*) FROM data WHERE u > 100", opts, 1); ok {
			b.Fatal("unexpected hit")
		}
	}
}

func BenchmarkPlanCacheHit(b *testing.B) {
	c := NewPlanCache(64, nil)
	c.SetEnabled(true)
	opts := OptsKey{}
	c.Put("q", opts, 1, "v")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("q", opts, 1); !ok {
			b.Fatal("miss")
		}
	}
}
