// Package morsel is the engine's one worker pool: ForEach runs independent
// morsels (a partition, a pipeline, a key shard) on workers that claim them
// from one counter, Workers is the one degree clamp, and Catch is the one
// place a panic becomes an error.
package morsel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// InternalError is a recovered panic: a state only a bug can produce,
// reported as the error of the statement that hit it.
type InternalError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack at the recover
}

// Error renders the panic value.
func (e *InternalError) Error() string { return fmt.Sprintf("internal error: %v", e.Value) }

// Catch, deferred, turns a panic of the calling goroutine into an
// *InternalError stored in *err.
func Catch(err *error) {
	if v := recover(); v != nil {
		*err = &InternalError{Value: v, Stack: debug.Stack()}
	}
}

// Workers is the worker count for n morsels at the requested degree
// (degree <= 0 means runtime.GOMAXPROCS(0)): at most GOMAXPROCS and n, and
// at least 1.
func Workers(degree, n int) int {
	procs := runtime.GOMAXPROCS(0)
	if degree <= 0 || degree > procs {
		degree = procs
	}
	return max(1, min(degree, n))
}

// ForEach runs f(worker, i) for every i in [0, n) on up to workers
// goroutines; worker numbers the goroutine in [0, workers), so f can keep
// per-worker state. With workers <= 1 or n <= 1 it runs inline on the
// caller's goroutine as worker 0.
//
// The first error by time wins: no morsel is claimed after it, and ForEach
// returns it once every worker has exited. A cancelled ctx stops claiming
// and is returned unless a morsel failed first. A panic in f, inline or on
// a worker, is returned as an *InternalError.
func ForEach(ctx context.Context, n, workers int, f func(worker, i int) error) error {
	call := func(w, i int) (err error) {
		defer Catch(&err)
		if err = ctx.Err(); err != nil {
			return err
		}
		return f(w, i)
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := call(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	workers = min(workers, n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := call(w, i); err != nil {
					once.Do(func() { first = err })
					next.Store(int64(n)) // every later claim is past the end
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
