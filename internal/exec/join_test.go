package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"patchindex/internal/vector"
)

// pairsBatch builds a (key, payload) batch.
func pairsBatch(pairs [][2]int64) *vector.Batch {
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Int64})
	for _, p := range pairs {
		b.Vecs[0].AppendInt64(p[0])
		b.Vecs[1].AppendInt64(p[1])
	}
	return b
}

// joinRows renders collected join output as sortable tuples for comparison.
func joinRows(rows [][]vector.Value) [][4]int64 {
	out := make([][4]int64, len(rows))
	for i, r := range rows {
		for c := 0; c < 4 && c < len(r); c++ {
			if r[c].Null {
				out[i][c] = -999
			} else {
				out[i][c] = r[c].I64
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		for c := 0; c < 4; c++ {
			if out[i][c] != out[j][c] {
				return out[i][c] < out[j][c]
			}
		}
		return false
	})
	return out
}

func TestHashJoinBasic(t *testing.T) {
	for _, buildLeft := range []bool{true, false} {
		left := newMemOp([]vector.Type{vector.Int64, vector.Int64},
			pairsBatch([][2]int64{{1, 100}, {2, 200}, {3, 300}}))
		right := newMemOp([]vector.Type{vector.Int64, vector.Int64},
			pairsBatch([][2]int64{{2, 20}, {3, 30}, {3, 31}, {4, 40}}))
		j, err := NewHashJoin(left, right, 0, 0, buildLeft)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		got := joinRows(rows)
		want := [][4]int64{{2, 200, 2, 20}, {3, 300, 3, 30}, {3, 300, 3, 31}}
		if len(got) != len(want) {
			t.Fatalf("buildLeft=%v rows = %v", buildLeft, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("buildLeft=%v rows = %v, want %v", buildLeft, got, want)
			}
		}
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	lb := vector.NewBatch([]vector.Type{vector.Int64})
	lb.Vecs[0].AppendNull()
	lb.Vecs[0].AppendInt64(1)
	rb := vector.NewBatch([]vector.Type{vector.Int64})
	rb.Vecs[0].AppendNull()
	rb.Vecs[0].AppendInt64(1)
	j, err := NewHashJoin(newMemOp(lb.Types(), lb), newMemOp(rb.Types(), rb), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v (NULL keys must not join)", rows)
	}
}

func TestHashJoinStringKeys(t *testing.T) {
	lb := vector.NewBatch([]vector.Type{vector.String})
	lb.Vecs[0].AppendString("a")
	lb.Vecs[0].AppendString("b")
	rb := vector.NewBatch([]vector.Type{vector.String})
	rb.Vecs[0].AppendString("b")
	rb.Vecs[0].AppendString("c")
	j, err := NewHashJoin(newMemOp(lb.Types(), lb), newMemOp(rb.Types(), rb), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Str != "b" {
		t.Errorf("string join = %v", rows)
	}
}

func TestHashJoinValidation(t *testing.T) {
	src := newMemOp([]vector.Type{vector.Int64})
	if _, err := NewHashJoin(src, src, 5, 0, false); err == nil {
		t.Error("bad left key must fail")
	}
	if _, err := NewHashJoin(src, src, 0, 5, false); err == nil {
		t.Error("bad right key must fail")
	}
	// The kernels never convert keys: Int64 joins Date, nothing else.
	floats := newMemOp([]vector.Type{vector.Float64})
	dates := newMemOp([]vector.Type{vector.Date})
	if _, err := NewHashJoin(src, floats, 0, 0, false); err == nil {
		t.Error("hash join of Int64 and Float64 keys must fail")
	}
	if _, err := NewMergeJoin(floats, src, 0, 0); err == nil {
		t.Error("merge join of Float64 and Int64 keys must fail")
	}
	if _, err := NewHashJoin(src, dates, 0, 0, false); err != nil {
		t.Errorf("hash join of Int64 and Date keys: %v", err)
	}
	if _, err := NewMergeJoin(dates, src, 0, 0); err != nil {
		t.Errorf("merge join of Date and Int64 keys: %v", err)
	}
}

func TestMergeJoinBasic(t *testing.T) {
	left := newMemOp([]vector.Type{vector.Int64, vector.Int64},
		pairsBatch([][2]int64{{1, 100}, {2, 200}, {3, 300}}))
	right := newMemOp([]vector.Type{vector.Int64, vector.Int64},
		pairsBatch([][2]int64{{2, 20}, {3, 30}, {3, 31}, {4, 40}}))
	j, err := NewMergeJoin(left, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	got := joinRows(rows)
	want := [][4]int64{{2, 200, 2, 20}, {3, 300, 3, 30}, {3, 300, 3, 31}}
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
}

func TestMergeJoinManyToMany(t *testing.T) {
	// Duplicate keys on BOTH sides require the buffered cross product.
	left := newMemOp([]vector.Type{vector.Int64, vector.Int64},
		pairsBatch([][2]int64{{5, 1}, {5, 2}, {7, 3}}))
	right := newMemOp([]vector.Type{vector.Int64, vector.Int64},
		pairsBatch([][2]int64{{5, 10}, {5, 11}, {5, 12}, {7, 20}}))
	j, err := NewMergeJoin(left, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// 2×3 for key 5 plus 1×1 for key 7.
	if len(rows) != 7 {
		t.Fatalf("cross product size = %d, want 7", len(rows))
	}
}

// keyBatch builds a (key, payload) batch with a key of type typ (Int64 or
// Date); a NULL entry in keys is written as NULL.
func keyBatch(typ vector.Type, keys ...any) *vector.Batch {
	b := vector.NewBatch([]vector.Type{typ, vector.Int64})
	for i, k := range keys {
		if k == nil {
			b.Vecs[0].AppendNull()
		} else {
			b.Vecs[0].AppendInt64(int64(k.(int)))
		}
		b.Vecs[1].AppendInt64(int64(i))
	}
	return b
}

// The unsortedness checks run for Int64 and Date keys alike, on NULL-free
// batches (the typed check) and on NULL-bearing ones (the generic check),
// and report the same errors on both.
func TestMergeJoinRejectsUnsortedInput(t *testing.T) {
	for _, typ := range []vector.Type{vector.Int64, vector.Date} {
		for _, tc := range []struct {
			name string
			keys []any
			want string
		}{
			{"typed", []any{3, 1}, "not sorted within batch at row 1"},
			{"nulls", []any{3, nil, 1}, "not sorted within batch at row 2"},
		} {
			left := newMemOp([]vector.Type{typ, vector.Int64}, keyBatch(typ, tc.keys...))
			right := newMemOp([]vector.Type{typ, vector.Int64}, keyBatch(typ, 1, 3))
			j, err := NewMergeJoin(left, right, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Drain(j); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s/%s: err = %v, want %q", typ, tc.name, err, tc.want)
			}
		}
	}
}

func TestMergeJoinRejectsUnsortedAcrossBatches(t *testing.T) {
	for _, typ := range []vector.Type{vector.Int64, vector.Date} {
		for _, tc := range []struct {
			name        string
			first, next []any
		}{
			{"typed", []any{5}, []any{2}},
			{"nulls", []any{5, nil}, []any{nil, 2}},
			{"typed-after-nulls", []any{nil, 5}, []any{2, 6}},
			{"nulls-after-typed", []any{1, 5}, []any{nil, 2}},
		} {
			left := newMemOp([]vector.Type{typ, vector.Int64},
				keyBatch(typ, tc.first...), keyBatch(typ, tc.next...)) // goes backwards across batches
			right := newMemOp([]vector.Type{typ, vector.Int64}, keyBatch(typ, 1, 2, 5, 6))
			j, err := NewMergeJoin(left, right, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("not sorted across batches: %v after %v",
				keyBatch(typ, 2).Vecs[0].Value(0), keyBatch(typ, 5).Vecs[0].Value(0))
			if _, err := Drain(j); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s/%s: err = %v, want %q", typ, tc.name, err, want)
			}
		}
	}
}

// TestMergeJoinSkipCrossesBatches: when the keys differ, the cursor behind
// seeks forward within its batch; here each side has to seek past the end
// of a batch and continue in the next one.
func TestMergeJoinSkipCrossesBatches(t *testing.T) {
	span := func(lo, hi int) []any {
		var keys []any
		for k := lo; k < hi; k++ {
			keys = append(keys, k)
		}
		return keys
	}
	types := []vector.Type{vector.Int64, vector.Int64}
	left := newMemOp(types, keyBatch(vector.Int64, span(0, 1000)...),
		keyBatch(vector.Int64, span(1000, 2000)...), keyBatch(vector.Int64, 5000))
	right := newMemOp(types, keyBatch(vector.Int64, 1500),
		keyBatch(vector.Int64, span(1600, 5000)...), keyBatch(vector.Int64, 5000, 5000))
	j, err := NewMergeJoin(left, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for _, row := range got {
		if row[0].I64 != row[2].I64 {
			t.Fatalf("row %v joins different keys", row)
		}
		keys = append(keys, row[0].I64)
	}
	want := []int64{1500}
	for k := int64(1600); k < 2000; k++ {
		want = append(want, k)
	}
	want = append(want, 5000, 5000)
	if !slices.Equal(keys, want) {
		t.Fatalf("joined keys = %v…, want %d keys %v…", keys[:min(5, len(keys))], len(want), want[:5])
	}
}

func TestMergeJoinNullKeysSkipped(t *testing.T) {
	lb := vector.NewBatch([]vector.Type{vector.Int64})
	lb.Vecs[0].AppendNull()
	lb.Vecs[0].AppendInt64(1)
	rb := vector.NewBatch([]vector.Type{vector.Int64})
	rb.Vecs[0].AppendNull()
	rb.Vecs[0].AppendInt64(1)
	j, err := NewMergeJoin(newMemOp(lb.Types(), lb), newMemOp(rb.Types(), rb), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v (NULL keys must not join)", rows)
	}
}

// TestMergeJoinUniqueKeyRepeatsAcrossBatches: the N:1 kernel takes a batch
// whose keys strictly increase as the unique side, from the left or from
// the right. A strict batch's last key may open the next batch of that side
// too, and its rows must then join as a cross product; keys at the ends of
// the int64 range must join without a search past them overflowing. The
// reference join is the oracle.
func TestMergeJoinUniqueKeyRepeatsAcrossBatches(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	types := []vector.Type{vector.Int64, vector.Int64}
	batches := func(keys ...[]int64) []*vector.Batch {
		var out []*vector.Batch
		for _, ks := range keys {
			b := vector.NewBatch(types)
			for _, k := range ks {
				b.Vecs[0].AppendInt64(k)
				b.Vecs[1].AppendInt64(int64(len(out)*1000 + b.Len()))
			}
			out = append(out, b)
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		unique, many   []*vector.Batch
		wantRows       int
		wantKernelRows bool
	}{
		{"last key repeats in next batch",
			batches([]int64{1, 2, 3, 5}, []int64{5, 6, 8}),
			batches([]int64{1, 1, 2, 3, 3, 4, 5}, []int64{5, 5, 6, 7, 8, 8}),
			2 + 1 + 2 + 2*3 + 1 + 2, true},
		{"int64 range ends",
			batches([]int64{lo, lo + 1, 0, hi - 1, hi}),
			batches([]int64{lo, lo, lo + 1, -1, 0, 0, hi - 1, hi - 1, hi, hi}),
			2 + 1 + 2 + 2 + 2, true},
		{"range ends across batches",
			batches([]int64{lo}, []int64{lo, hi}, []int64{hi}),
			batches([]int64{lo, lo, lo}, []int64{hi}, []int64{hi, hi}),
			2*3 + 2*3, false},
	} {
		for _, uniqueLeft := range []bool{true, false} {
			l, r := tc.unique, tc.many
			if !uniqueLeft {
				l, r = r, l
			}
			left := func() Operator { return newMemOp(types, l...) }
			right := func() Operator { return newMemOp(types, r...) }
			mj, err := NewMergeJoin(left(), right(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(mj)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runRefMergeJoin(left(), right(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(got, want); err != nil {
				t.Errorf("%s, unique left=%v: %v", tc.name, uniqueLeft, err)
			}
			if len(got) != tc.wantRows {
				t.Errorf("%s, unique left=%v: %d rows, want %d", tc.name, uniqueLeft, len(got), tc.wantRows)
			}
			if kernel := mj.kernelRows; (kernel > 0) != tc.wantKernelRows {
				t.Errorf("%s, unique left=%v: kernel_rows=%d", tc.name, uniqueLeft, kernel)
			}
		}
	}
}

// TestJoinEquivalence: hash join and merge join must produce identical
// results on random sorted inputs (the merge join requires sortedness).
func TestJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		mkSide := func(n, keyRange int) [][2]int64 {
			pairs := make([][2]int64, n)
			for i := range pairs {
				pairs[i] = [2]int64{rng.Int63n(int64(keyRange)), rng.Int63n(1000)}
			}
			sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
			return pairs
		}
		lp := mkSide(rng.Intn(300), 40)
		rp := mkSide(rng.Intn(300), 40)
		types := []vector.Type{vector.Int64, vector.Int64}

		hj, err := NewHashJoin(newMemOp(types, pairsBatch(lp)), newMemOp(types, pairsBatch(rp)), 0, 0, rng.Intn(2) == 0)
		if err != nil {
			t.Fatal(err)
		}
		hjRows, err := Collect(hj)
		if err != nil {
			t.Fatal(err)
		}
		mj, err := NewMergeJoin(newMemOp(types, pairsBatch(lp)), newMemOp(types, pairsBatch(rp)), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		mjRows, err := Collect(mj)
		if err != nil {
			t.Fatal(err)
		}
		h, m := joinRows(hjRows), joinRows(mjRows)
		if len(h) != len(m) {
			t.Fatalf("trial %d: hash %d rows vs merge %d rows", trial, len(h), len(m))
		}
		for i := range h {
			if h[i] != m[i] {
				t.Fatalf("trial %d: row %d differs: %v vs %v", trial, i, h[i], m[i])
			}
		}
	}
}

// TestMergeJoinStreamingAcrossBatchBoundary exercises a key group spanning
// multiple right-side batches in the single-left-row streaming mode.
func TestMergeJoinStreamingAcrossBatchBoundary(t *testing.T) {
	left := newMemOp([]vector.Type{vector.Int64, vector.Int64},
		pairsBatch([][2]int64{{7, 1}}))
	var rbatches []*vector.Batch
	total := 0
	for b := 0; b < 3; b++ {
		var pairs [][2]int64
		for i := 0; i < 1500; i++ { // > BatchSize to force output splits
			pairs = append(pairs, [2]int64{7, int64(b*1500 + i)})
			total++
		}
		rbatches = append(rbatches, pairsBatch(pairs))
	}
	right := newMemOp([]vector.Type{vector.Int64, vector.Int64}, rbatches...)
	j, err := NewMergeJoin(left, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("joined %d rows, want %d", n, total)
	}
}

// rowText renders a row with each value's type and NULL flag, so rows
// compare exactly (a Date 0 and an Int64 0 differ, -0.0 and 0.0 too).
func rowText(row []vector.Value) string {
	var sb strings.Builder
	for _, v := range row {
		if v.Null {
			fmt.Fprintf(&sb, "%s:NULL|", v.Typ)
		} else if v.Typ == vector.Float64 {
			fmt.Fprintf(&sb, "%s:%x|", v.Typ, math.Float64bits(v.F64))
		} else {
			fmt.Fprintf(&sb, "%s:%s|", v.Typ, v)
		}
	}
	return sb.String()
}

// sameRows compares got with want row for row.
func sameRows(got, want [][]vector.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference %d", len(got), len(want))
	}
	for i := range got {
		if g, w := rowText(got[i]), rowText(want[i]); g != w {
			return fmt.Errorf("row %d = %s, reference %s", i, g, w)
		}
	}
	return nil
}

// joinKeyValue appends the k-th key of v's type; the order of k is the
// order of the keys. Float key 20 is 0.0 on even rows and -0.0 on odd ones,
// which are equal.
func joinKeyValue(v *vector.Vector, k, row int) {
	switch v.Typ {
	case vector.Int64:
		v.AppendInt64(int64(k)*3 - 100)
	case vector.Date:
		v.AppendInt64(int64(k) + 18000)
	case vector.String:
		v.AppendString(fmt.Sprintf("k%05d", k))
	case vector.Float64:
		f := float64(k)/2 - 10
		if k == 20 && row%2 == 1 {
			f = math.Copysign(0, -1)
		}
		v.AppendFloat64(f)
	}
}

// joinSide generates one sorted join input: every key of [0, universe) is
// present with probability 3/5 with 1 row (unique) or 1..maxDup rows; a key
// is NULL with probability nullPct %, anywhere in the stream, and its slot
// still holds the key it replaced, so a kernel that reads the slot of a NULL
// finds a match; the payload is NULL one row in eight. Batches hold 1..1500 rows, so groups span batch
// boundaries.
func joinSide(rng *rand.Rand, types []vector.Type, keyCol, universe, maxDup, nullPct int) []*vector.Batch {
	var batches []*vector.Batch
	var cur *vector.Batch
	size := 0
	row := 0
	for k := 0; k < universe; k++ {
		if rng.Intn(5) >= 3 {
			continue
		}
		for d := 1 + rng.Intn(maxDup); d > 0; d-- {
			if cur == nil || cur.Len() >= size {
				cur = vector.NewBatch(types)
				batches = append(batches, cur)
				size = 1 + rng.Intn(1500)
			}
			for c, v := range cur.Vecs {
				switch {
				case c == keyCol:
					joinKeyValue(v, k, row)
					if rng.Intn(100) < nullPct {
						v.SetNullAt(v.Len() - 1) // the slot keeps a live key
					}
				case rng.Intn(8) == 0:
					v.AppendNull()
				case v.Typ == vector.String:
					v.AppendString(fmt.Sprintf("p%d", row))
				default:
					v.AppendInt64(int64(row))
				}
			}
			row++
		}
	}
	return batches
}

// FuzzJoin compares MergeJoin and HashJoin (build left, build right, left
// outer) row for row, in order, with the kernels as they stood before the
// typed paths (reference_test.go). An in-memory HashJoin emits in probe
// order, each probe row's matches in build order, like the reference. typ picks the key type
// (Int64, Date, String, Float64), nulls the key NULL density (0, 1, 50,
// 100 %), shape the group shape (1:1, 1:N, N:M, N:1) by the maximum
// duplicates per key on each side; keys are drawn per side, so many are on
// one side only and the cursors skip. NULL-free Int64/Date batches with one
// row per key take MergeJoin's N:1 kernel, from either side.
func FuzzJoin(f *testing.F) {
	for typ := uint8(0); typ < 4; typ++ {
		for shape := uint8(0); shape < 4; shape++ {
			f.Add(int64(typ)*4+int64(shape), typ, uint8(shape), shape, uint16(400))
		}
	}
	for typ := uint8(0); typ < 2; typ++ {
		for _, shape := range []uint8{0, 1, 3} {
			f.Add(int64(40+typ*4+shape), typ, uint8(0), shape, uint16(2500))
		}
	}
	f.Add(int64(99), uint8(1), uint8(3), uint8(2), uint16(300))
	f.Add(int64(7), uint8(0), uint8(1), uint8(1), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, typ, nulls, shape uint8, universe uint16) {
		rng := rand.New(rand.NewSource(seed))
		kt := []vector.Type{vector.Int64, vector.Date, vector.String, vector.Float64}[typ%4]
		nullPct := []int{0, 1, 50, 100}[nulls%4]
		maxDup := [][2]int{{1, 1}, {1, 30}, {4, 6}, {30, 1}}[shape%4]
		n := 1 + int(universe%3000)
		lTypes := []vector.Type{vector.Int64, kt}
		rTypes := []vector.Type{kt, vector.String}
		lb := joinSide(rng, lTypes, 1, n, maxDup[0], nullPct)
		rb := joinSide(rng, rTypes, 0, n, maxDup[1], nullPct)
		left := func() Operator { return newMemOp(lTypes, lb...) }
		right := func() Operator { return newMemOp(rTypes, rb...) }

		mj, err := NewMergeJoin(left(), right(), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(mj)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runRefMergeJoin(left(), right(), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRows(got, want); err != nil {
			t.Fatalf("MergeJoin: %v", err)
		}

		for _, v := range []struct {
			name             string
			buildLeft, outer bool
		}{{"build=right", false, false}, {"build=left", true, false}, {"left outer", false, true}} {
			var hj *HashJoin
			if v.outer {
				hj, err = NewLeftOuterHashJoin(left(), right(), 1, 0)
			} else {
				hj, err = NewHashJoin(left(), right(), 1, 0, v.buildLeft)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(hj)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runRefHashJoin(left(), right(), 1, 0, v.buildLeft, v.outer)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(got, want); err != nil {
				t.Fatalf("HashJoin %s: %v", v.name, err)
			}
		}
	})
}

// joinBenchShape is one join shape of the kernel benchmarks: keys keys,
// lDup rows per key on the left and rDup on the right; with gaps every tenth
// key is absent from the left and every third from the right.
type joinBenchShape struct {
	name             string
	keys, lDup, rDup int
	gaps             bool
}

// joinBenchShapes are the join shapes of the kernel benchmarks: 1:1, 1:27
// (a dimension key against a fact table, the shape of the NSC join rewrite),
// 27:1 (the same join written the other way round), 1:27 with gaps (fact
// keys with no dimension row, dimension keys no fact row references) and N:M.
var joinBenchShapes = []joinBenchShape{
	{"1:1", 1 << 16, 1, 1, false},
	{"1:27", 1 << 13, 1, 27, false},
	{"27:1", 1 << 13, 27, 1, false},
	{"1:27/gaps", 1 << 13, 1, 27, true},
	{"N:M", 1 << 12, 4, 8, false},
}

// joinBenchInput builds one sorted Int64 key column per side of shape sh,
// every tenth key NULL when nulls is set, in BatchSize batches. It returns
// both sides and the join's output row count.
func joinBenchInput(sh joinBenchShape, nulls bool) (l, r []*vector.Batch, out int) {
	present := func(k, skip, at int) bool { return !sh.gaps || k%skip != at }
	side := func(dup, skip, at int) []*vector.Batch {
		var batches []*vector.Batch
		var cur *vector.Batch
		for k := 0; k < sh.keys; k++ {
			if !present(k, skip, at) {
				continue
			}
			for d := 0; d < dup; d++ {
				if cur == nil || cur.Len() == vector.BatchSize {
					cur = vector.NewBatch([]vector.Type{vector.Int64})
					batches = append(batches, cur)
				}
				if nulls && k%10 == 0 {
					cur.Vecs[0].AppendNull()
				} else {
					cur.Vecs[0].AppendInt64(int64(k))
				}
			}
		}
		return batches
	}
	for k := 0; k < sh.keys; k++ {
		if present(k, 10, 0) && present(k, 3, 1) && !(nulls && k%10 == 0) {
			out += sh.lDup * sh.rDup
		}
	}
	return side(sh.lDup, 10, 0), side(sh.rDup, 3, 1), out
}

// benchJoin reports the cost of join per output row on every shape, with
// and without NULL keys, on keys of type typ (Int64 or String).
func benchJoin(b *testing.B, join func(l, r Operator) (Operator, error), typ vector.Type) {
	types := []vector.Type{typ}
	for _, sh := range joinBenchShapes {
		for _, nulls := range []bool{false, true} {
			name := sh.name
			if nulls {
				name += "/nulls"
			}
			lb, rb, out := joinBenchInput(sh, nulls)
			if typ == vector.String {
				lb, rb = stringKeys(lb), stringKeys(rb)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					j, err := join(newMemOp(types, lb...), newMemOp(types, rb...))
					if err != nil {
						b.Fatal(err)
					}
					if n, err := Drain(j); err != nil || n != out {
						b.Fatalf("drained %d rows, want %d, err %v", n, out, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*out), "ns/row")
			})
		}
	}
}

func BenchmarkMergeJoin(b *testing.B) {
	benchJoin(b, func(l, r Operator) (Operator, error) { return NewMergeJoin(l, r, 0, 0) }, vector.Int64)
}

// BenchmarkHashJoin builds on the left input, the side with fewer rows,
// on Int64 keys and again on the same keys as strings.
func BenchmarkHashJoin(b *testing.B) {
	join := func(l, r Operator) (Operator, error) { return NewHashJoin(l, r, 0, 0, true) }
	benchJoin(b, join, vector.Int64)
	b.Run("string", func(b *testing.B) { benchJoin(b, join, vector.String) })
}

// stringKeys returns batches with their Int64 key column rewritten as
// zero-padded strings, which sort as the integers do; NULLs stay NULL.
func stringKeys(batches []*vector.Batch) []*vector.Batch {
	out := make([]*vector.Batch, len(batches))
	for i, b := range batches {
		v := vector.New(vector.String, b.Len())
		for r, k := range b.Vecs[0].I64 {
			if b.Vecs[0].IsNull(r) {
				v.AppendNull()
			} else {
				v.AppendString(fmt.Sprintf("key-%010d", k))
			}
		}
		out[i] = &vector.Batch{Vecs: []*vector.Vector{v}}
	}
	return out
}
