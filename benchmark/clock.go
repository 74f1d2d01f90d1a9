package main

import (
	"sort"
	"sync"
	"time"
)

// The hosts this benchmark runs on are shared. The one it was written on
// has two clock states about 27 % apart and flips between them several times
// a second to once in several seconds, both cores together: a fixed chain of
// integer multiplies takes 0.97 ns a step in one state and 1.23 ns in the
// other, and every engine operation follows it (COUNT DISTINCT 13.3 / 16.8
// ms, sort 20 / 25 ms, join 42 / 54 ms). A run spends anything from none to
// all of its window in either state, so raw medians of two runs of the same
// commit differ by up to that 27 % and no regression bound could hold.
//
// hostClock therefore times that fixed chain every few milliseconds for the
// whole run, and every reported time is rescaled by it: the wall time of an
// operation (or a set-up) is divided by the chain's slowdown over the same
// interval, relative to refStepNs. Times are thus in milliseconds of a host
// whose multiply chain takes exactly 1 ns a step — on the development host's
// fast state that is within 3 % of wall-clock time. The raw wall-clock
// figures are printed next to the calibrated ones.
const (
	refStepNs   = 1.0
	chainSteps  = 50_000
	sampleEvery = 5 * time.Millisecond
)

// chainNs times chainSteps dependent multiply-adds and returns ns per step.
// The result is kept so the compiler cannot drop the loop.
var chainSink uint64

func chainNs() float64 {
	start := time.Now()
	x := chainSink | 1
	for i := 0; i < chainSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	d := time.Since(start)
	chainSink = x
	return float64(d) / chainSteps
}

type hostClock struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	mu   sync.Mutex
	at   []time.Duration // sample times since start, ascending
	step []float64       // ns per chain step at each
}

// startHostClock begins sampling in a goroutine of its own (about 1 % of one
// core); stopAndWait ends it.
func startHostClock() *hostClock {
	h := &hostClock{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

// sample keeps the faster of two readings: a reading that shared its core
// with another thread is slow for a reason that is not the clock.
func (h *hostClock) sample() {
	a, b := chainNs(), chainNs()
	if b < a {
		a = b
	}
	h.mu.Lock()
	h.at = append(h.at, time.Since(h.start))
	h.step = append(h.step, a)
	h.mu.Unlock()
}

func (h *hostClock) stopAndWait() {
	close(h.stop)
	<-h.done
}

// slowdown is the host's mean slowdown over [from, to] relative to the
// reference clock: the mean of the samples inside the interval, or of the two
// around it when it is shorter than the sampling period.
func (h *hostClock) slowdown(from, to time.Time) float64 {
	lo, hi := from.Sub(h.start), to.Sub(h.start)
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.at), func(k int) bool { return h.at[k] >= lo })
	j := sort.Search(len(h.at), func(k int) bool { return h.at[k] > hi })
	if i == j { // no sample inside: take the neighbours
		if i > 0 {
			i--
		}
		if j < len(h.at) {
			j++
		}
	}
	var sum float64
	for _, s := range h.step[i:j] {
		sum += s
	}
	return sum / float64(j-i) / refStepNs
}
