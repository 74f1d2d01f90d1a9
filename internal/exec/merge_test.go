package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"patchindex/internal/vector"
)

// keyDomain is how generated merge inputs draw their key values.
type keyDomain int

const (
	domTies     keyDomain = iota // a handful of small values: ties across inputs
	domWide                      // random values with MinInt64/MaxInt64 mixed in
	domDisjoint                  // input i draws from its own range: whole-batch runs
)

// mergeShape describes the inputs of one generated merge.
type mergeShape struct {
	keys    []SortKey
	types   []vector.Type // key columns first, then an Int64 payload
	dom     keyDomain
	nullPct int
	// batchSize returns the next batch's row count; 0 emits an empty batch.
	batchSize func() int
}

// genValue draws one key value of type t for input child.
func genValue(rng *rand.Rand, t vector.Type, child int, s mergeShape) vector.Value {
	if s.nullPct > 0 && rng.Intn(100) < s.nullPct {
		return vector.NullValue(t)
	}
	if t == vector.String {
		return vector.StringValue([]string{"a", "b", "bb", "c"}[rng.Intn(4)])
	}
	var x int64
	switch s.dom {
	case domTies:
		x = int64(rng.Intn(7) - 3)
	case domWide:
		switch rng.Intn(8) {
		case 0:
			x = math.MinInt64
		case 1:
			x = math.MaxInt64
		default:
			x = rng.Int63() - rng.Int63()
		}
	case domDisjoint:
		x = int64(child)<<32 + int64(rng.Intn(1<<20))
	}
	return vector.Value{Typ: t, I64: x}
}

// genSortedInput builds n rows for input child, sorted on s.keys the way
// compareRows orders them, cut into batches by s.batchSize. The payload
// column is unique across inputs, so any difference in tie order shows.
func genSortedInput(rng *rand.Rand, child, n int, s mergeShape) []*vector.Batch {
	rows := make([][]vector.Value, n)
	pay := len(s.types) - 1
	for i := range rows {
		row := make([]vector.Value, len(s.types))
		for c := 0; c < pay; c++ {
			row[c] = genValue(rng, s.types[c], child, s)
		}
		row[pay] = vector.IntValue(int64(child)<<32 | int64(i))
		rows[i] = row
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range s.keys {
			c := rows[a][k.Col].Compare(rows[b][k.Col])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	var batches []*vector.Batch
	for lo := 0; lo < n; {
		hi := lo + s.batchSize()
		if hi > n {
			hi = n
		}
		b := vector.NewBatch(s.types)
		for _, row := range rows[lo:hi] {
			for c, v := range row {
				if err := b.Vecs[c].AppendValue(v); err != nil {
					panic(err)
				}
			}
		}
		// Some batches carry a NULL mask with no NULL in it.
		if rng.Intn(4) == 0 {
			for _, v := range b.Vecs {
				if v.Nulls == nil {
					v.Nulls = make([]bool, v.Len())
				}
			}
		}
		batches = append(batches, b)
		lo = hi
	}
	return batches
}

// checkMergeMatchesReference merges inputs with MergeUnion and with the
// row-by-row reference and requires row-for-row identical output.
func checkMergeMatchesReference(t *testing.T, keys []SortKey, types []vector.Type, inputs [][]*vector.Batch) {
	t.Helper()
	children := func() []Operator {
		ops := make([]Operator, len(inputs))
		for i, bs := range inputs {
			ops[i] = newMemOp(types, bs...)
		}
		return ops
	}
	mu, err := NewMergeUnion(keys, children()...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(mu)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(newRefMergeUnion(keys, children()...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows: got %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("row %d: got %v, reference %v", i, got[i], want[i])
		}
	}
}

// TestMergeUnionMatchesReference: the galloping, typed merge returns exactly
// what the row-by-row loop returned, over 1–9 inputs, both directions, Int64
// and Date keys (typed path), NULL keys in some batches, multi-column and
// string keys (the compareRowsAcross fallback), ties across inputs, the
// int64 extremes, empty inputs and batches from 0 rows to past BatchSize.
func TestMergeUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	keyShapes := []struct {
		name  string
		keys  func(desc bool) []SortKey
		types []vector.Type
	}{
		{"int64", func(d bool) []SortKey { return []SortKey{{Col: 0, Desc: d}} }, []vector.Type{vector.Int64, vector.Int64}},
		{"date", func(d bool) []SortKey { return []SortKey{{Col: 0, Desc: d}} }, []vector.Type{vector.Date, vector.Int64}},
		{"multikey", func(d bool) []SortKey { return []SortKey{{Col: 0, Desc: d}, {Col: 1}} }, []vector.Type{vector.Int64, vector.Int64, vector.Int64}},
		{"string", func(d bool) []SortKey { return []SortKey{{Col: 0, Desc: d}} }, []vector.Type{vector.String, vector.Int64}},
	}
	batchSizes := []struct {
		name string
		size func() int
	}{
		{"one", func() int { return 1 }},
		{"seven", func() int { return 7 }},
		{"full", func() int { return vector.BatchSize }},
		{"random", func() int { return rng.Intn(1500) }},
	}
	for _, ks := range keyShapes {
		for _, desc := range []bool{false, true} {
			for _, dom := range []keyDomain{domTies, domWide, domDisjoint} {
				for _, nullPct := range []int{0, 10} {
					for k := 1; k <= 9; k++ {
						bs := batchSizes[rng.Intn(len(batchSizes))]
						s := mergeShape{keys: ks.keys(desc), types: ks.types, dom: dom, nullPct: nullPct, batchSize: bs.size}
						maxRows := 3000
						if k > 3 {
							maxRows = 700
						}
						inputs := make([][]*vector.Batch, k)
						for i := range inputs {
							n := 0
							if rng.Intn(6) > 0 { // some inputs are empty
								n = rng.Intn(maxRows)
							}
							inputs[i] = genSortedInput(rng, i, n, s)
						}
						t.Run("", func(t *testing.T) {
							t.Logf("%s desc=%v dom=%d nulls=%d%% k=%d batches=%s", ks.name, desc, dom, nullPct, k, bs.name)
							checkMergeMatchesReference(t, s.keys, s.types, inputs)
						})
					}
				}
			}
		}
	}
}

// disjointInts returns n ascending keys from start, in batches of size.
func disjointInts(start int64, n, size int) []*vector.Batch {
	var batches []*vector.Batch
	for lo := 0; lo < n; lo += size {
		b := vector.NewBatch([]vector.Type{vector.Int64})
		for i := lo; i < lo+size && i < n; i++ {
			b.Vecs[0].AppendInt64(start + int64(i))
		}
		batches = append(batches, b)
	}
	return batches
}

// TestMergeUnionRunStats: on range-disjoint inputs every run the competitor
// bounds is a whole batch decided by one compare, and runs end exactly on
// batch boundaries; on perfectly interleaved inputs every run is one row
// and none is decided that way.
func TestMergeUnionRunStats(t *testing.T) {
	types := []vector.Type{vector.Int64}
	stats := func(inputs ...[]*vector.Batch) map[string]int64 {
		t.Helper()
		checkMergeMatchesReference(t, []SortKey{{Col: 0}}, types, inputs)
		ops := make([]Operator, len(inputs))
		for i, bs := range inputs {
			ops[i] = newMemOp(types, bs...)
		}
		mu, err := NewMergeUnion([]SortKey{{Col: 0}}, ops...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Drain(mu); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, kv := range mu.ExtraStats() {
			out[kv.Key] = kv.Value
		}
		return out
	}

	// Two partitions of 2048 rows in full batches: the first partition's
	// two batches each go out in one compare, then the second runs alone.
	got := stats(disjointInts(0, 2048, vector.BatchSize), disjointInts(2048, 2048, vector.BatchSize))
	if got["merge_runs"] != 4 || got["whole_batch_runs"] != 2 {
		t.Errorf("disjoint: %v, want merge_runs=4 whole_batch_runs=2", got)
	}

	evens, odds := intBatch(), intBatch()
	for i := int64(0); i < 1024; i++ {
		evens.Vecs[0].AppendInt64(2 * i)
		odds.Vecs[0].AppendInt64(2*i + 1)
	}
	got = stats([]*vector.Batch{evens}, []*vector.Batch{odds})
	if got["merge_runs"] != 2048 || got["whole_batch_runs"] != 0 {
		t.Errorf("interleaved: %v, want merge_runs=2048 whole_batch_runs=0", got)
	}
}

// sortPermInputs are the key sequences the permutation test sorts.
func sortPermInputs(n int) map[string][]int64 {
	rng := rand.New(rand.NewSource(int64(n)))
	in := map[string][]int64{}
	random, dups, sorted, reverse, equal, organ, extremes :=
		make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		random[i] = rng.Int63() - rng.Int63()
		dups[i] = rng.Int63n(int64(n/10 + 1))
		sorted[i] = int64(i)
		reverse[i] = int64(n - i)
		equal[i] = 42
		if i < n/2 {
			organ[i] = int64(i)
		} else {
			organ[i] = int64(n - i)
		}
		extremes[i] = []int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)]
	}
	in["random"], in["dups"], in["sorted"], in["reverse"] = random, dups, sorted, reverse
	in["allequal"], in["organ"], in["extremes"] = equal, organ, extremes
	return in
}

// stablePermutation is the typed sort's oracle: row ids stably sorted by
// key, so tied rows keep their input order.
func stablePermutation(vals []int64, desc bool) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if desc {
			return cmp.Compare(vals[b], vals[a])
		}
		return cmp.Compare(vals[a], vals[b])
	})
	return idx
}

// checkTypedPermutation requires sortPermutation over one Int64/Date key to
// return the stable permutation exactly, tie order included, and the key
// values in that order.
func checkTypedPermutation(t *testing.T, vals []int64, typ vector.Type, desc bool) {
	t.Helper()
	col := vector.NewFromInt64(append([]int64(nil), vals...))
	col.Typ = typ
	got, sortedKey := sortPermutation([]*vector.Vector{col}, len(vals), []SortKey{{Col: 0, Desc: desc}})
	want := stablePermutation(vals, desc)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d %s desc=%v: permutation differs from the stable sort", len(vals), typ, desc)
	}
	for i, r := range want {
		if sortedKey[i] != vals[r] {
			t.Fatalf("n=%d %s desc=%v: sorted key %d is %d, want %d", len(vals), typ, desc, i, sortedKey[i], vals[r])
		}
	}
}

// TestSortPermutationMatchesReference: the typed radix sort returns exactly
// the stable order, ties in input order; the generic path (NULL-bearing,
// multi-column and string keys) returns the closure quicksort's permutation.
func TestSortPermutationMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 16, 17, 47, 48, 100, 10_000} {
		for name, vals := range sortPermInputs(n) {
			for _, typ := range []vector.Type{vector.Int64, vector.Date} {
				for _, desc := range []bool{false, true} {
					t.Run(name, func(t *testing.T) { checkTypedPermutation(t, vals, typ, desc) })
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	n := 5000
	ints, strs := vector.New(vector.Int64, n), vector.New(vector.String, n)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			ints.AppendNull()
		} else {
			ints.AppendInt64(rng.Int63n(100))
		}
		strs.AppendString([]string{"a", "b", "bb", "c"}[rng.Intn(4)])
	}
	cols := []*vector.Vector{ints, strs}
	for _, keys := range [][]SortKey{{{Col: 0}}, {{Col: 0, Desc: true}}, {{Col: 1}}, {{Col: 1}, {Col: 0, Desc: true}}} {
		got, sortedKey := sortPermutation(cols, n, keys)
		if want := refSortPermutation(cols, n, keys); !slices.Equal(got, want) || sortedKey != nil {
			t.Fatalf("keys %v: generic permutation differs from the closure quicksort", keys)
		}
	}
}

// TestOrganPipeReachesHeapsortGuard: the organ-pipe input above drives the
// closure quicksort, which multi-column, non-integer and NULL-bearing keys
// take, past its depth bound. Had the guard never fired, running with and
// without it would make exactly the same compares.
func TestOrganPipeReachesHeapsortGuard(t *testing.T) {
	vals := sortPermInputs(10_000)["organ"]
	compares := func(depth int) int {
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		n := 0
		quicksortRange(idx, 0, len(idx), func(a, b int) bool { n++; return vals[a] < vals[b] }, depth)
		return n
	}
	if guarded, unguarded := compares(maxDepth(len(vals))), compares(math.MaxInt); guarded == unguarded {
		t.Fatalf("organ pipe never reached the heapsort guard (%d compares either way)", guarded)
	}
}

// FuzzSortPermutation checks the typed radix sort against the stable sort.
// Keys are seeded random offsets of spanBits bits from a random base, so the
// radix sort makes 1 to 8 passes; dupMod > 0 folds the offsets onto few
// values, extremes mixes in MinInt64 and MaxInt64, and n reaches 4095.
func FuzzSortPermutation(f *testing.F) {
	f.Add(uint16(100), uint8(7), uint8(0), false, false, false, int64(1))
	f.Add(uint16(3000), uint8(63), uint8(0), true, false, false, int64(2))
	f.Add(uint16(2000), uint8(24), uint8(7), false, true, true, int64(3))
	f.Add(uint16(64), uint8(40), uint8(0), true, true, true, int64(4))
	f.Fuzz(func(t *testing.T, n uint16, spanBits, dupMod uint8, desc, date, extremes bool, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		mask := uint64(1)<<(spanBits%64+1) - 1
		base := rng.Int63() - rng.Int63()
		vals := make([]int64, n%4096)
		for i := range vals {
			x := rng.Uint64() & mask
			if dupMod > 0 {
				x %= uint64(dupMod)
			}
			vals[i] = base + int64(x)
			if extremes && rng.Intn(16) == 0 {
				vals[i] = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
			}
		}
		typ := vector.Int64
		if date {
			typ = vector.Date
		}
		checkTypedPermutation(t, vals, typ, desc)
	})
}

// FuzzMergeUnion compares MergeUnion with the row-by-row reference on
// inputs decoded from data: byte i goes to input i%k, 0xFF is a NULL key,
// 0xFE and 0xFD the int64 extremes, anything else a small value (ties).
func FuzzMergeUnion(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(2), false, uint8(3))
	f.Add([]byte{0xFF, 0xFE, 0xFD, 7, 7, 7, 0xFF, 9}, uint8(3), true, uint8(1))
	f.Add([]byte{10, 200, 10, 200, 10, 200, 0xFD, 0xFE}, uint8(0x88), false, uint8(0))
	// Two Date inputs, descending: a long dense one and a sparse one whose
	// few keys fall between the long one's, the rest trailing as MinInt64.
	longSparse := make([]byte, 0, 240)
	for i := 0; i < 120; i++ {
		sparse := byte(0xFE)
		if i%8 == 0 {
			sparse = byte(128 + i*7%120)
		}
		longSparse = append(longSparse, byte(128+i), sparse)
	}
	f.Add(longSparse, uint8(0x88), true, uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, desc bool, batch uint8) {
		k := 1 + int(shape%9)
		typ := vector.Int64
		if shape&0x80 != 0 {
			typ = vector.Date
		}
		types := []vector.Type{typ, vector.Int64}
		keys := []SortKey{{Col: 0, Desc: desc}}
		vals := make([][]vector.Value, k)
		for i, b := range data {
			v := vector.Value{Typ: typ, I64: int64(b) - 128}
			switch b {
			case 0xFF:
				v = vector.NullValue(typ)
			case 0xFE:
				v.I64 = math.MinInt64
			case 0xFD:
				v.I64 = math.MaxInt64
			}
			vals[i%k] = append(vals[i%k], v)
		}
		size := 1 + int(batch%40)
		inputs := make([][]*vector.Batch, k)
		for c, vs := range vals {
			sort.SliceStable(vs, func(a, b int) bool {
				if desc {
					return vs[b].Compare(vs[a]) < 0
				}
				return vs[a].Compare(vs[b]) < 0
			})
			for lo := 0; lo < len(vs); lo += size {
				b := vector.NewBatch(types)
				for i := lo; i < lo+size && i < len(vs); i++ {
					if err := b.Vecs[0].AppendValue(vs[i]); err != nil {
						t.Fatal(err)
					}
					b.Vecs[1].AppendInt64(int64(c)<<32 | int64(i))
				}
				inputs[c] = append(inputs[c], b)
			}
		}
		checkMergeMatchesReference(t, keys, types, inputs)
	})
}

// BenchmarkMergeUnion reports merge cost per output row for the two shapes
// the sort rewrite produces: range-disjoint partitions (the exclude side's
// per-partition merge) and a sorted stream with 5 % of rows interleaved from
// a second input (the exclude side merged with the sorted patches).
func BenchmarkMergeUnion(b *testing.B) {
	const rows = 1 << 18
	shapes := map[string][][]*vector.Batch{}

	var parts [][]*vector.Batch
	for p := 0; p < 8; p++ {
		parts = append(parts, disjointInts(int64(p*rows/8), rows/8, vector.BatchSize))
	}
	shapes["disjoint8"] = parts

	rng := rand.New(rand.NewSource(1))
	var main, patches []int64
	for i := 0; i < rows; i++ {
		if rng.Intn(20) == 0 {
			patches = append(patches, rng.Int63n(rows))
		} else {
			main = append(main, int64(i))
		}
	}
	sort.Slice(patches, func(i, j int) bool { return patches[i] < patches[j] })
	batched := func(vals []int64) []*vector.Batch {
		var out []*vector.Batch
		for lo := 0; lo < len(vals); lo += vector.BatchSize {
			hi := min(lo+vector.BatchSize, len(vals))
			out = append(out, intBatch(vals[lo:hi]...))
		}
		return out
	}
	shapes["interleaved5pct"] = [][]*vector.Batch{batched(main), batched(patches)}
	// The same keys as zero-padded strings take the generic run search.
	batchedStr := func(vals []int64) []*vector.Batch {
		var out []*vector.Batch
		for lo := 0; lo < len(vals); lo += vector.BatchSize {
			b := vector.NewBatch([]vector.Type{vector.String})
			for _, v := range vals[lo:min(lo+vector.BatchSize, len(vals))] {
				b.Vecs[0].AppendString(fmt.Sprintf("%08d", v))
			}
			out = append(out, b)
		}
		return out
	}
	shapes["interleaved5pct_str"] = [][]*vector.Batch{batchedStr(main), batchedStr(patches)}

	for _, name := range []string{"disjoint8", "interleaved5pct", "interleaved5pct_str"} {
		inputs := shapes[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ops := make([]Operator, len(inputs))
				for c, bs := range inputs {
					ops[c] = newMemOp([]vector.Type{inputs[0][0].Vecs[0].Typ}, bs...)
				}
				mu, err := NewMergeUnion([]SortKey{{Col: 0}}, ops...)
				if err != nil {
					b.Fatal(err)
				}
				if n, err := Drain(mu); err != nil || n != rows {
					b.Fatalf("drained %d rows, err %v", n, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkSortPermutation reports the single-integer-key sort's cost per
// row for the shapes the sort rewrite and its no-rewrite arm produce: 50 k
// random keys (the patch sort), 1 M nearly sorted keys with 5 % of them
// displaced (the no-rewrite arm), heavy duplicates, and a descending key.
func BenchmarkSortPermutation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gen := func(n int, f func(i int) int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	cases := []struct {
		name string
		desc bool
		vals []int64
	}{
		{"random50k", false, gen(50_000, func(int) int64 { return rng.Int63n(1_000_000) })},
		{"nearlysorted1M", false, gen(1_000_000, func(i int) int64 {
			if rng.Intn(20) == 0 {
				return rng.Int63n(1_000_000)
			}
			return int64(i)
		})},
		{"dups50k", false, gen(50_000, func(int) int64 { return rng.Int63n(64) })},
		{"desc50k", true, gen(50_000, func(int) int64 { return rng.Int63n(1_000_000) })},
	}
	for _, c := range cases {
		cols := []*vector.Vector{vector.NewFromInt64(c.vals)}
		keys := []SortKey{{Col: 0, Desc: c.desc}}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if idx, _ := sortPermutation(cols, len(c.vals), keys); len(idx) != len(c.vals) {
					b.Fatalf("permutation of %d rows, want %d", len(idx), len(c.vals))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.vals)), "ns/row")
		})
	}
}
