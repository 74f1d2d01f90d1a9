package server

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patchindex"
	"patchindex/internal/tuning"
)

// TestTunerStressMixedWorkload runs the background tuner at a short interval
// while eight client goroutines execute a mixed read workload and HTTP/wire
// probes scrape /tuner — so tuner-vs-executor and tuner-vs-observability
// races show up under -race. Every query must succeed regardless of the
// tuner creating or dropping indexes mid-flight.
func TestTunerStressMixedWorkload(t *testing.T) {
	eng, err := patchindex.New(patchindex.Config{
		AutoTune: true,
		Tuning: tuning.Config{
			Interval:         5 * time.Millisecond,
			MinTicks:         4,
			WarmupTicks:      4,
			DropIdleTicks:    8,
			DropBenefitFloor: 1e18,
			CooldownCycles:   1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	loadBigTable(t, eng, 10_000)
	s := startServer(t, Config{Engine: eng})

	const (
		clients   = 8
		perClient = 30
	)
	queries := []string{
		"SELECT COUNT(DISTINCT u) FROM data",
		"SELECT s FROM data ORDER BY s LIMIT 5",
		"SELECT COUNT(*) FROM data WHERE u < 1000",
		"SHOW PATCHINDEXES",
		"SHOW TUNER",
	}
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		queryErr atomic.Pointer[error]
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				queryErr.CompareAndSwap(nil, &err)
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				q := queries[(n+j)%len(queries)]
				if _, err := c.Query(q); err != nil {
					queryErr.CompareAndSwap(nil, &err)
					return
				}
			}
			// One client checks the tuner status over the wire.
			if n == 0 {
				if res, err := c.Query("SHOW TUNER"); err != nil || len(res.Rows) == 0 {
					t.Errorf("wire tuner status: %+v, %v", res, err)
				}
			}
		}(i)
	}

	// HTTP probes hammer /tuner (JSON and text) concurrently with the cycles.
	probeErrs := make(chan error, 16)
	var probes sync.WaitGroup
	probes.Add(1)
	go func() {
		defer probes.Done()
		for !stop.Load() {
			for _, path := range []string{"/tuner", "/tuner?format=text"} {
				if code, _, err := httpGet(s, path); err != nil || code != http.StatusOK {
					select {
					case probeErrs <- err:
					default:
					}
					return
				}
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	probes.Wait()
	close(probeErrs)
	if errp := queryErr.Load(); errp != nil {
		t.Fatalf("query workload: %v", *errp)
	}
	for err := range probeErrs {
		t.Fatalf("/tuner probe: %v", err)
	}

	// The tuner ran cycles during the load and the journal is retrievable.
	st := eng.Tuner().Status()
	if st.Cycles == 0 {
		t.Fatalf("background tuner never cycled: %+v", st)
	}
	code, body, err := httpGet(s, "/tuner?format=text")
	if err != nil || code != http.StatusOK || !strings.Contains(body, "tuner:") {
		t.Fatalf("/tuner?format=text = %d, %v\n%s", code, err, body)
	}
}
