package vector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkAgainstMap inserts keys one batch at a time into a table created with
// the given capacity and compares every id with a map[int64]int oracle, then
// probes present and absent keys through both lookup paths.
func checkAgainstMap(t *testing.T, capacity int, keys []int64) {
	t.Helper()
	tab := NewInt64Table(capacity)
	oracle := map[int64]int{}
	ids := make([]int32, len(keys))
	for lo := 0; lo < len(keys); lo += 300 { // not a multiple of insertChunk
		hi := min(lo+300, len(keys))
		tab.InsertBatch(keys[lo:hi], ids[lo:hi])
	}
	for i, k := range keys {
		want, seen := oracle[k]
		if !seen {
			want = len(oracle)
			oracle[k] = want
		}
		if int(ids[i]) != want {
			t.Fatalf("key %d (position %d): id %d, want %d", k, i, ids[i], want)
		}
	}
	if tab.Len() != len(oracle) {
		t.Fatalf("Len = %d, want %d distinct keys", tab.Len(), len(oracle))
	}
	probe := append([]int64(nil), keys...)
	for _, k := range keys {
		probe = append(probe, k+1, ^k)
	}
	got := make([]int32, len(probe))
	tab.LookupBatch(probe, got)
	for i, k := range probe {
		want := -1
		if id, ok := oracle[k]; ok {
			want = id
		}
		if int(got[i]) != want {
			t.Fatalf("LookupBatch(%d) = %d, want %d", k, got[i], want)
		}
		if id := tab.Lookup(k); int(id) != want {
			t.Fatalf("Lookup(%d) = %d, want %d", k, id, want)
		}
		// Insert of a present key returns its id and adds nothing.
		if want >= 0 {
			if id := tab.Insert(k); int(id) != want || tab.Len() != len(oracle) {
				t.Fatalf("Insert(%d) of a present key = %d (Len %d), want %d (Len %d)", k, id, tab.Len(), want, len(oracle))
			}
		}
	}
}

func TestInt64TableEdgeKeys(t *testing.T) {
	keys := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64 - 1, math.MinInt64 + 1}
	checkAgainstMap(t, len(keys), keys)
	checkAgainstMap(t, 0, keys)
	checkAgainstMap(t, 0, nil)
}

// Keys that are multiples of 2^k share all their low bits; a hash that kept
// low bits would pile them onto one slot.
func TestInt64TableCollidingKeys(t *testing.T) {
	for _, k := range []uint{1, 8, 20, 32, 48, 56} {
		keys := make([]int64, 0, 5000)
		for i := int64(0); i < 2500 && i<<k>>k == i; i++ {
			keys = append(keys, i<<k, -(i << k))
		}
		checkAgainstMap(t, len(keys), keys)
	}
}

func TestInt64TableRandomAndGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, domain := range []int64{1, 50, 5000, math.MaxInt64} {
		keys := make([]int64, 20000)
		for i := range keys {
			keys[i] = rng.Int63n(domain) - domain/2
		}
		checkAgainstMap(t, len(keys), keys) // sized once, never grows
		checkAgainstMap(t, 1, keys)         // grows from the minimum size
	}
}

func TestInt64TableSingleInsertAssignsDenseIDs(t *testing.T) {
	tab := NewInt64Table(2)
	for i := 0; i < 1000; i++ {
		before := tab.Len()
		if id := tab.Insert(int64(i) << 40); int(id) != before {
			t.Fatalf("new key %d: id %d, want %d", i, id, before)
		}
	}
	if id := tab.Insert(5 << 40); id != 5 {
		t.Fatalf("existing key: id %d, want 5", id)
	}
}

// Sequential keys must not cluster: with the load held at one half the
// probe sequences stay short, which is what the build's flat per-row cost
// rests on.
func TestInt64TableSequentialKeysProbeShort(t *testing.T) {
	const n = 1 << 16
	tab := NewInt64Table(n)
	for i := int64(0); i < n; i++ {
		tab.Insert(i)
	}
	mask := uint64(len(tab.slots) - 1)
	total := 0
	for i := int64(0); i < n; i++ {
		h := tab.home(i)
		for tab.keys[tab.slots[h]-1] != i {
			h = (h + 1) & mask
			total++
		}
	}
	if avg := float64(total) / n; avg > 1 {
		t.Fatalf("sequential keys: %.2f extra probes per lookup at load 1/2", avg)
	}
}

func TestShardOfInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shards := range []int{1, 2, 3, 8} {
		counts := make([]int, shards)
		const n = 40000
		for i := 0; i < n; i++ {
			k := int64(i)
			if i%2 == 1 {
				k = rng.Int63() - rng.Int63()
			}
			s := ShardOfInt64(k, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOfInt64(%d, %d) = %d", k, shards, s)
			}
			if s != ShardOfInt64(k, shards) {
				t.Fatal("ShardOfInt64 is not a function of its arguments")
			}
			counts[s]++
		}
		for s, c := range counts {
			if c < n/shards*8/10 || c > n/shards*12/10 {
				t.Errorf("%d shards: shard %d holds %d of %d keys", shards, s, c, n)
			}
		}
	}
	// A worker that keeps only its shard must still spread over its table.
	const n = 1 << 15
	tab := NewInt64Table(n)
	for i := int64(0); tab.Len() < n; i++ {
		if ShardOfInt64(i, 2) == 1 {
			tab.Insert(i)
		}
	}
	mask := uint64(len(tab.slots) - 1)
	total := 0
	for _, k := range tab.keys {
		h := tab.home(k)
		for tab.keys[tab.slots[h]-1] != k {
			h = (h + 1) & mask
			total++
		}
	}
	if avg := float64(total) / n; avg > 1 {
		t.Fatalf("one shard's keys: %.2f extra probes per lookup at load 1/2", avg)
	}
}

// FuzzInt64Table drives the table with arbitrary key sequences against a
// map[int64]int. The first byte picks the initial capacity (so both the
// sized-once and the growing paths run) and how many low bits are cleared
// from every key (so colliding keys are common).
func FuzzInt64Table(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x13, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64([]byte{0xff}, 1<<63))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64([]byte{0x40}, math.MaxUint64), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity, zeroBits := int(data[0]&0x0f)*8, uint(data[0]>>4)*4
		data = data[1:]
		keys := make([]int64, 0, len(data)/8+1)
		for len(data) >= 8 {
			keys = append(keys, int64(binary.LittleEndian.Uint64(data))>>zeroBits<<zeroBits)
			data = data[8:]
		}
		for _, b := range data { // the tail: small keys, many repeats
			keys = append(keys, int64(int8(b)))
		}
		checkAgainstMap(t, capacity, keys)
	})
}

func BenchmarkInt64TableInsertBatch(b *testing.B) {
	for _, n := range []int{200_000, 1_000_000} {
		keys := make([]int64, n)
		rng := rand.New(rand.NewSource(1))
		for i := range keys {
			keys[i] = int64(i)
			if rng.Intn(20) == 0 {
				keys[i] = int64(rng.Intn(n / 100))
			}
		}
		rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		ids := make([]int32, BatchSize)
		b.Run(map[int]string{200_000: "200k", 1_000_000: "1M"}[n], func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				tab := NewInt64Table(n)
				for lo := 0; lo < n; lo += BatchSize {
					tab.InsertBatch(keys[lo:min(lo+BatchSize, n)], ids)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
		})
	}
}
