package obs

import "sync/atomic"

// Ring is a fixed-capacity buffer of the most recently added values: the
// one bounded history behind the query-history traces, the time-series
// tiers, the alert history and the tuner journal. Writers claim a slot with
// one atomic increment and publish an immutable value with an atomic
// pointer store; readers snapshot the slots lock-free, so a history
// endpoint never contends with the path that records into it.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
}

// NewRing creates a ring holding the last n values (minimum 1).
func NewRing[T any](n int) *Ring[T] {
	if n < 1 {
		n = 1
	}
	return &Ring[T]{slots: make([]atomic.Pointer[T], n)}
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Add publishes v, overwriting the oldest value when the ring is full. v
// must not be mutated after Add.
func (r *Ring[T]) Add(v *T) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(v)
}

// Snapshot returns the retained values, oldest first. The order is exact
// when no Add runs concurrently; an Add racing the snapshot may land out of
// place, so a reader beside concurrent writers sorts by its own key.
func (r *Ring[T]) Snapshot() []*T {
	n := uint64(len(r.slots))
	end := r.next.Load()
	start := uint64(0)
	if end > n {
		start = end - n
	}
	out := make([]*T, 0, end-start)
	for i := start; i < end; i++ {
		if v := r.slots[i%n].Load(); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// Values returns copies of the retained values, in Snapshot order.
func (r *Ring[T]) Values() []T {
	ps := r.Snapshot()
	out := make([]T, len(ps))
	for i, p := range ps {
		out[i] = *p
	}
	return out
}
