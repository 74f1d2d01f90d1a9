package exec

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"patchindex/internal/vector"
)

func TestSortAscending(t *testing.T) {
	src := newMemOp([]vector.Type{vector.Int64}, intBatch(5, 1, 4, 2, 3))
	s, err := NewSort(src, []SortKey{{Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, rows, 0), []int64{1, 2, 3, 4, 5}) {
		t.Errorf("sorted = %v", rows)
	}
}

func TestSortDescending(t *testing.T) {
	src := newMemOp([]vector.Type{vector.Int64}, intBatch(5, 1, 4))
	s, _ := NewSort(src, []SortKey{{Col: 0, Desc: true}})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !eqInts(intsOf(t, rows, 0), []int64{5, 4, 1}) {
		t.Errorf("sorted desc = %v", rows)
	}
}

func TestSortNullsFirst(t *testing.T) {
	b := vector.NewBatch([]vector.Type{vector.Int64})
	b.Vecs[0].AppendInt64(2)
	b.Vecs[0].AppendNull()
	b.Vecs[0].AppendInt64(1)
	src := newMemOp(b.Types(), b)
	s, _ := NewSort(src, []SortKey{{Col: 0}})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0][0].Null || rows[1][0].I64 != 1 || rows[2][0].I64 != 2 {
		t.Errorf("null ordering = %v", rows)
	}
}

func TestSortMultiKey(t *testing.T) {
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.String})
	add := func(i int64, s string) {
		b.Vecs[0].AppendInt64(i)
		b.Vecs[1].AppendString(s)
	}
	add(1, "b")
	add(2, "a")
	add(1, "a")
	src := newMemOp(b.Types(), b)
	s, _ := NewSort(src, []SortKey{{Col: 0}, {Col: 1}})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1].Str != "a" || rows[1][1].Str != "b" || rows[2][0].I64 != 2 {
		t.Errorf("multi-key sort = %v", rows)
	}
}

func TestSortValidation(t *testing.T) {
	src := newMemOp([]vector.Type{vector.Int64})
	if _, err := NewSort(src, nil); err == nil {
		t.Error("no keys must fail")
	}
	if _, err := NewSort(src, []SortKey{{Col: 7}}); err == nil {
		t.Error("bad key column must fail")
	}
}

// TestSortProperty: the operator must agree with sort.Slice for random
// inputs (exercising the int64 fast path) and keep the multiset intact.
func TestSortProperty(t *testing.T) {
	f := func(vals []int64, desc bool) bool {
		src := newMemOp([]vector.Type{vector.Int64}, intBatch(vals...))
		s, err := NewSort(src, []SortKey{{Col: 0, Desc: desc}})
		if err != nil {
			return false
		}
		rows, err := Collect(s)
		if err != nil {
			return false
		}
		want := append([]int64{}, vals...)
		sort.Slice(want, func(i, j int) bool {
			if desc {
				return want[i] > want[j]
			}
			return want[i] < want[j]
		})
		got := make([]int64, len(rows))
		for i, r := range rows {
			got[i] = r[0].I64
		}
		return eqInts(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSortLarge exercises the multi-batch path and heap fallback guard.
func TestSortLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 50_000
	var batches []*vector.Batch
	var all []int64
	for i := 0; i < n; i += 1000 {
		b := vector.NewBatch([]vector.Type{vector.Int64})
		for j := 0; j < 1000; j++ {
			v := rng.Int63n(500) // heavy duplicates stress partitioning
			b.Vecs[0].AppendInt64(v)
			all = append(all, v)
		}
		batches = append(batches, b)
	}
	src := newMemOp([]vector.Type{vector.Int64}, batches...)
	s, _ := NewSort(src, []SortKey{{Col: 0}})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	got := make([]int64, len(rows))
	for i, r := range rows {
		got[i] = r[0].I64
	}
	if !eqInts(got, all) {
		t.Fatal("large sort mismatch")
	}
}

// TestQuicksortAdversarial feeds patterns that defeat naive pivoting.
func TestQuicksortAdversarial(t *testing.T) {
	patterns := map[string][]int64{
		"sorted":    nil,
		"reverse":   nil,
		"organ":     nil,
		"allequal":  nil,
		"sawtooth":  nil,
		"twovalues": nil,
	}
	n := 10_000
	for name := range patterns {
		vals := make([]int64, n)
		for i := range vals {
			switch name {
			case "sorted":
				vals[i] = int64(i)
			case "reverse":
				vals[i] = int64(n - i)
			case "organ":
				if i < n/2 {
					vals[i] = int64(i)
				} else {
					vals[i] = int64(n - i)
				}
			case "allequal":
				vals[i] = 42
			case "sawtooth":
				vals[i] = int64(i % 17)
			case "twovalues":
				vals[i] = int64(i % 2)
			}
		}
		patterns[name] = vals
	}
	for name, vals := range patterns {
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		quicksort(idx, func(a, b int) bool { return vals[a] < vals[b] })
		for i := 1; i < len(idx); i++ {
			if vals[idx[i-1]] > vals[idx[i]] {
				t.Fatalf("%s: not sorted at %d", name, i)
			}
		}
	}
}

func TestSortFloatAndStringKeys(t *testing.T) {
	fb := vector.NewBatch([]vector.Type{vector.Float64})
	for _, v := range []float64{2.5, 0.5, 1.5} {
		fb.Vecs[0].AppendFloat64(v)
	}
	s, _ := NewSort(newMemOp(fb.Types(), fb), []SortKey{{Col: 0}})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].F64 != 0.5 || rows[2][0].F64 != 2.5 {
		t.Errorf("float sort = %v", rows)
	}

	sb := vector.NewBatch([]vector.Type{vector.String})
	for _, v := range []string{"pear", "apple", "mango"} {
		sb.Vecs[0].AppendString(v)
	}
	s2, _ := NewSort(newMemOp(sb.Types(), sb), []SortKey{{Col: 0}})
	rows, err = Collect(s2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Str != "apple" || rows[2][0].Str != "pear" {
		t.Errorf("string sort = %v", rows)
	}
}

// nullMaskBatches returns three (key, payload) batches: one with no NULL
// mask, one with NULLs in both columns, one with a mask but no NULL.
func nullMaskBatches() []*vector.Batch {
	types := []vector.Type{vector.Int64, vector.String}
	plain := vector.NewBatch(types)
	plain.Vecs[0].AppendInt64(5)
	plain.Vecs[1].AppendString("e")
	plain.Vecs[0].AppendInt64(3)
	plain.Vecs[1].AppendString("c")
	nulls := vector.NewBatch(types)
	nulls.Vecs[0].AppendNull()
	nulls.Vecs[1].AppendString("n")
	nulls.Vecs[0].AppendInt64(4)
	nulls.Vecs[1].AppendNull()
	masked := vector.NewBatch(types)
	masked.Vecs[0].AppendInt64(1)
	masked.Vecs[1].AppendString("a")
	for _, v := range masked.Vecs {
		v.Nulls = make([]bool, v.Len())
	}
	return []*vector.Batch{plain, nulls, masked}
}

// nullMaskSorted is nullMaskBatches sorted on the key, as "key|payload".
var nullMaskSorted = []string{"NULL|n", "1|a", "3|c", "4|NULL", "5|e"}

// TestMaterializeNullMask: the bulk copy keeps every NULL and invents none,
// whichever batches carry a mask.
func TestMaterializeNullMask(t *testing.T) {
	batches := nullMaskBatches()
	op := newMemOp(batches[0].Types(), batches...)
	if err := op.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	cols, n, err := materialize(op, op.Types())
	if err != nil {
		t.Fatal(err)
	}
	wantNull := [][]bool{{false, false, true, false, false}, {false, false, false, true, false}}
	if n != 5 {
		t.Fatalf("materialized %d rows, want 5", n)
	}
	for c, col := range cols {
		for i := 0; i < n; i++ {
			if col.IsNull(i) != wantNull[c][i] {
				t.Errorf("column %d row %d: null=%v", c, i, col.IsNull(i))
			}
		}
	}
	if cols[0].I64[4] != 1 || cols[1].Str[0] != "e" {
		t.Errorf("values: %v %v", cols[0].I64, cols[1].Str)
	}
}

// TestSortSpillAccumulatorNullMask: the spilling sort's accumulator keeps
// NULLs across batches with and without masks, whether the input stays in
// one run or spills to several.
func TestSortSpillAccumulatorNullMask(t *testing.T) {
	for _, limit := range []int64{1 << 20, 1} {
		batches := nullMaskBatches()
		s, err := NewSort(newMemOp(batches[0].Types(), batches...), []SortKey{{Col: 0}})
		if err != nil {
			t.Fatal(err)
		}
		s.SetSpill(SpillConfig{Dir: t.TempDir(), Limit: limit})
		if got := collectRows(t, s); !reflect.DeepEqual(got, nullMaskSorted) {
			t.Errorf("limit %d: got %v, want %v", limit, got, nullMaskSorted)
		}
		if limit == 1 && s.spilledRuns != 3 {
			t.Errorf("limit 1: %d spilled runs, want 3", s.spilledRuns)
		}
	}
}
