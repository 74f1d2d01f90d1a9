package obs

import (
	"sync"
	"testing"
)

func TestRingCapacitiesWrapAndSnapshot(t *testing.T) {
	for _, capacity := range []int{1, 3, 128} {
		r := NewRing[int](capacity)
		if r.Cap() != capacity {
			t.Fatalf("Cap = %d, want %d", r.Cap(), capacity)
		}
		if got := r.Snapshot(); len(got) != 0 {
			t.Fatalf("cap %d: empty ring snapshot has %d values", capacity, len(got))
		}
		// Fill to half, to exactly full, then past several wraps.
		for _, adds := range []int{capacity / 2, capacity, 3*capacity + 1} {
			r := NewRing[int](capacity)
			for i := 0; i < adds; i++ {
				v := i
				r.Add(&v)
			}
			got := r.Snapshot()
			want := min(adds, capacity)
			if len(got) != want {
				t.Fatalf("cap %d, %d adds: snapshot has %d values, want %d", capacity, adds, len(got), want)
			}
			// The newest values survive, oldest first.
			vals := r.Values()
			for i, v := range got {
				if *v != adds-want+i || vals[i] != *v {
					t.Fatalf("cap %d, %d adds: snapshot[%d] = %d, values[%d] = %d, want %d",
						capacity, adds, i, *v, i, vals[i], adds-want+i)
				}
			}
		}
	}
	if NewRing[int](0).Cap() != 1 {
		t.Fatal("a non-positive capacity must clamp to 1")
	}
}

// TestRingConcurrentAddAndSnapshot runs writers beside snapshot readers;
// under -race it checks the lock-free publish, and every snapshot must hold
// at most Cap published values, none torn.
func TestRingConcurrentAddAndSnapshot(t *testing.T) {
	const writers, perWriter, capacity = 4, 2000, 64
	r := NewRing[[2]int](capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if len(snap) > capacity {
					t.Errorf("snapshot of %d values exceeds capacity %d", len(snap), capacity)
					return
				}
				for _, v := range snap {
					if v[0] != -v[1] {
						t.Errorf("torn value %v", *v)
						return
					}
				}
			}
		}()
	}
	var writes sync.WaitGroup
	for w := 0; w < writers; w++ {
		writes.Add(1)
		go func(w int) {
			defer writes.Done()
			for i := 0; i < perWriter; i++ {
				n := w*perWriter + i
				r.Add(&[2]int{n, -n})
			}
		}(w)
	}
	writes.Wait()
	close(stop)
	wg.Wait()
	if got := len(r.Snapshot()); got != capacity {
		t.Fatalf("after %d adds the ring holds %d, want %d", writers*perWriter, got, capacity)
	}
}
