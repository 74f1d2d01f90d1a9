package morsel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryMorselOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		const n = 1000
		var hits [n]atomic.Int32
		var badWorker atomic.Bool
		err := ForEach(context.Background(), n, workers, func(w, i int) error {
			if w < 0 || w >= max(workers, 1) {
				badWorker.Store(true)
			}
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers %d: morsel %d ran %d times", workers, i, got)
			}
		}
		if badWorker.Load() {
			t.Errorf("workers %d: worker number out of range", workers)
		}
	}
}

func TestForEachFirstErrorStopsClaiming(t *testing.T) {
	boom := errors.New("boom")
	// Inline: the morsels after the failing one never run.
	var calls int
	err := ForEach(context.Background(), 10, 1, func(_, i int) error {
		calls++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("inline: err %v after %d calls, want boom after 4", err, calls)
	}
	// Workers: each finishes the morsel it holds and claims no other.
	const n = 1000
	var ran atomic.Int32
	err = ForEach(context.Background(), n, 4, func(_, i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("workers: err = %v, want boom", err)
	}
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("workers: %d of %d morsels ran after the first error", got, n)
	}
}

// TestForEachFirstErrorByTime: a sibling's later cancellation error does not
// replace the error that stopped the pool.
func TestForEachFirstErrorByTime(t *testing.T) {
	boom := errors.New("boom")
	failed := make(chan struct{})
	err := ForEach(context.Background(), 2, 2, func(_, i int) error {
		if i == 0 {
			defer close(failed)
			return boom
		}
		<-failed
		time.Sleep(10 * time.Millisecond)
		return context.Canceled
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestForEachPanicBecomesInternalError(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, c := range []struct {
		name       string
		n, workers int
	}{
		{"inline", 1, 4},
		{"inline serial", 5, 1},
		{"worker", 64, 4},
	} {
		err := ForEach(context.Background(), c.n, c.workers, func(_, i int) error {
			if i == c.n-1 {
				panicHere()
			}
			return nil
		})
		var ie *InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: err = %v, want *InternalError", c.name, err)
		}
		if ie.Value != "morsel test panic" || !strings.Contains(ie.Error(), "internal error: morsel test panic") {
			t.Errorf("%s: value %v, message %q", c.name, ie.Value, ie.Error())
		}
		if !strings.Contains(string(ie.Stack), "panicHere") {
			t.Errorf("%s: stack does not show the panicking function:\n%s", c.name, ie.Stack)
		}
	}
	// No worker outlives ForEach (a goroutine past wg.Done may take a
	// moment to leave the count).
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
	}
}

func panicHere() { panic("morsel test panic") }

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := ForEach(ctx, 100, workers, func(_, _ int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
			t.Errorf("workers %d: err %v after %d calls, want context.Canceled after 0", workers, err, calls.Load())
		}
	}
	// Cancelled mid-run: no morsel is claimed after the cancellation.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var calls int
	err := ForEach(ctx, 100, 1, func(_, i int) error {
		calls++
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || calls != 3 {
		t.Errorf("mid-run: err %v after %d calls, want context.Canceled after 3", err, calls)
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ degree, n, want int }{
		{4, 2, min(2, procs)}, // capped by morsel count
		{1, 10, 1},            // explicit serial
		{-1, 0, 1},            // degenerate: at least one worker
		{0, 0, 1},
		{0, 1000, min(procs, 1000)}, // 0 means GOMAXPROCS
		{procs + 1, 1000, procs},    // capped at GOMAXPROCS
	}
	for _, c := range cases {
		if got := Workers(c.degree, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.degree, c.n, got, c.want)
		}
	}
}
