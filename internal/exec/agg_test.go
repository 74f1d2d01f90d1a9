package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"patchindex/internal/vector"
)

// kv builds a two-column (int64 group, int64 value) batch.
func kv(pairs ...[2]int64) *vector.Batch {
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Int64})
	for _, p := range pairs {
		b.Vecs[0].AppendInt64(p[0])
		b.Vecs[1].AppendInt64(p[1])
	}
	return b
}

func TestHashAggGroupByCounts(t *testing.T) {
	src := newMemOp([]vector.Type{vector.Int64, vector.Int64},
		kv([2]int64{1, 10}, [2]int64{2, 20}, [2]int64{1, 30}),
		kv([2]int64{2, 40}, [2]int64{3, 50}),
	)
	agg, err := NewHashAgg(src, []int{0}, []AggSpec{
		{Func: CountStar, Col: -1},
		{Func: Sum, Col: 1},
		{Func: Min, Col: 1},
		{Func: Max, Col: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64][4]int64{}
	for _, r := range rows {
		got[r[0].I64] = [4]int64{r[1].I64, r[2].I64, r[3].I64, r[4].I64}
	}
	want := map[int64][4]int64{
		1: {2, 40, 10, 30},
		2: {2, 60, 20, 40},
		3: {1, 50, 50, 50},
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %v", got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("group %d = %v, want %v", k, got[k], w)
		}
	}
}

func TestHashAggNullHandling(t *testing.T) {
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.Int64})
	b.Vecs[0].AppendInt64(1)
	b.Vecs[1].AppendNull()
	b.Vecs[0].AppendInt64(1)
	b.Vecs[1].AppendInt64(5)
	b.Vecs[0].AppendNull() // NULL group key forms its own group
	b.Vecs[1].AppendInt64(7)
	src := newMemOp([]vector.Type{vector.Int64, vector.Int64}, b)
	agg, err := NewHashAgg(src, []int{0}, []AggSpec{
		{Func: CountStar, Col: -1},
		{Func: Count, Col: 1},
		{Func: Sum, Col: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	for _, r := range rows {
		if r[0].Null {
			if r[1].I64 != 1 || r[2].I64 != 1 || r[3].I64 != 7 {
				t.Errorf("NULL group = %v", r)
			}
		} else {
			// COUNT(*)=2 but COUNT(v)=1: NULL not counted; SUM skips NULL.
			if r[1].I64 != 2 || r[2].I64 != 1 || r[3].I64 != 5 {
				t.Errorf("group 1 = %v", r)
			}
		}
	}
}

func TestHashAggGlobalEmptyInput(t *testing.T) {
	src := newMemOp([]vector.Type{vector.Int64, vector.Int64})
	agg, err := NewHashAgg(src, nil, []AggSpec{
		{Func: CountStar, Col: -1},
		{Func: Sum, Col: 1},
		{Func: Min, Col: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("global agg over empty input must yield one row, got %d", len(rows))
	}
	if rows[0][0].I64 != 0 || !rows[0][1].Null || !rows[0][2].Null {
		t.Errorf("row = %v (want 0, NULL, NULL)", rows[0])
	}
}

func TestHashAggCountDistinctGeneric(t *testing.T) {
	// Two aggregates force the generic path (fast path is single-agg only).
	src := newMemOp([]vector.Type{vector.Int64, vector.Int64},
		kv([2]int64{1, 10}, [2]int64{1, 10}, [2]int64{1, 20}, [2]int64{2, 10}),
	)
	agg, err := NewHashAgg(src, nil, []AggSpec{
		{Func: CountDistinct, Col: 1},
		{Func: CountStar, Col: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I64 != 2 || rows[0][1].I64 != 4 {
		t.Errorf("count distinct = %v", rows[0])
	}
}

// TestCountDistinctFastVsGeneric: the specialized global count-distinct path
// must agree with the generic implementation for random inputs with NULLs.
func TestCountDistinctFastVsGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(3000)
		b := vector.NewBatch([]vector.Type{vector.Int64, vector.Int64})
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				b.Vecs[0].AppendNull()
			} else {
				b.Vecs[0].AppendInt64(rng.Int63n(200))
			}
			b.Vecs[1].AppendInt64(1)
		}
		// Fast path: single CountDistinct agg.
		fast, err := NewHashAgg(newMemOp(b.Types(), b), nil, []AggSpec{{Func: CountDistinct, Col: 0}})
		if err != nil {
			t.Fatal(err)
		}
		fastRows, err := Collect(fast)
		if err != nil {
			t.Fatal(err)
		}
		// Generic path: an extra CountStar forces it.
		gen, err := NewHashAgg(newMemOp(b.Types(), b), nil, []AggSpec{{Func: CountDistinct, Col: 0}, {Func: CountStar, Col: -1}})
		if err != nil {
			t.Fatal(err)
		}
		genRows, err := Collect(gen)
		if err != nil {
			t.Fatal(err)
		}
		if fastRows[0][0].I64 != genRows[0][0].I64 {
			t.Fatalf("fast %d vs generic %d", fastRows[0][0].I64, genRows[0][0].I64)
		}
	}
}

func TestDistinctFastPathInt64(t *testing.T) {
	b := vector.NewBatch([]vector.Type{vector.Int64})
	for _, v := range []int64{3, 1, 3, 2, 1} {
		b.Vecs[0].AppendInt64(v)
	}
	b.Vecs[0].AppendNull()
	b.Vecs[0].AppendNull()
	src := newMemOp(b.Types(), b)
	agg, err := NewHashAgg(src, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct: 1, 2, 3 and a single NULL group.
	if len(rows) != 4 {
		t.Fatalf("distinct rows = %v", rows)
	}
	nulls := 0
	seen := map[int64]bool{}
	for _, r := range rows {
		if r[0].Null {
			nulls++
		} else {
			seen[r[0].I64] = true
		}
	}
	if nulls != 1 || len(seen) != 3 {
		t.Errorf("distinct = %v", rows)
	}
}

func TestDistinctFastPathString(t *testing.T) {
	b := vector.NewBatch([]vector.Type{vector.String})
	for _, s := range []string{"b", "a", "b", "c", "a"} {
		b.Vecs[0].AppendString(s)
	}
	src := newMemOp(b.Types(), b)
	agg, err := NewHashAgg(src, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r[0].Str)
	}
	sort.Strings(got)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("distinct strings = %v", got)
	}
}

func TestCountDistinctStringFast(t *testing.T) {
	b := vector.NewBatch([]vector.Type{vector.String})
	for _, s := range []string{"x", "y", "x"} {
		b.Vecs[0].AppendString(s)
	}
	b.Vecs[0].AppendNull()
	src := newMemOp(b.Types(), b)
	agg, err := NewHashAgg(src, nil, []AggSpec{{Func: CountDistinct, Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I64 != 2 {
		t.Errorf("count distinct strings = %v, want 2 (NULL not counted)", rows[0][0])
	}
}

func TestHashAggFloatSum(t *testing.T) {
	b := vector.NewBatch([]vector.Type{vector.Float64})
	b.Vecs[0].AppendFloat64(1.5)
	b.Vecs[0].AppendFloat64(2.25)
	src := newMemOp(b.Types(), b)
	agg, err := NewHashAgg(src, nil, []AggSpec{{Func: Sum, Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].F64 != 3.75 {
		t.Errorf("float sum = %v", rows[0][0])
	}
}

func TestHashAggValidation(t *testing.T) {
	src := newMemOp([]vector.Type{vector.Int64})
	if _, err := NewHashAgg(src, nil, nil); err == nil {
		t.Error("no groups and no aggs must fail")
	}
	if _, err := NewHashAgg(src, []int{3}, nil); err == nil {
		t.Error("bad group column must fail")
	}
	if _, err := NewHashAgg(src, nil, []AggSpec{{Func: Sum, Col: 9}}); err == nil {
		t.Error("bad agg column must fail")
	}
}

func TestHashAggMultiColumnGroups(t *testing.T) {
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.String})
	add := func(i int64, s string) {
		b.Vecs[0].AppendInt64(i)
		b.Vecs[1].AppendString(s)
	}
	add(1, "a")
	add(1, "b")
	add(1, "a")
	add(2, "a")
	src := newMemOp(b.Types(), b)
	agg, err := NewHashAgg(src, []int{0, 1}, []AggSpec{{Func: CountStar, Col: -1}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %v", rows)
	}
}

func TestAggSpecResultType(t *testing.T) {
	in := []vector.Type{vector.Int64, vector.Float64, vector.String}
	cases := []struct {
		spec AggSpec
		want vector.Type
	}{
		{AggSpec{Func: CountStar, Col: -1}, vector.Int64},
		{AggSpec{Func: Count, Col: 2}, vector.Int64},
		{AggSpec{Func: CountDistinct, Col: 2}, vector.Int64},
		{AggSpec{Func: Sum, Col: 0}, vector.Int64},
		{AggSpec{Func: Sum, Col: 1}, vector.Float64},
		{AggSpec{Func: Min, Col: 2}, vector.String},
		{AggSpec{Func: Max, Col: 1}, vector.Float64},
	}
	for _, c := range cases {
		if got := c.spec.ResultType(in); got != c.want {
			t.Errorf("%v result type = %v, want %v", c.spec, got, c.want)
		}
	}
}

// aggBenchInput returns rows int64 rows in full batches: column 0 cycles
// through groups keys in a scattered order, column 1 is a value.
func aggBenchInput(rows, groups int) []*vector.Batch {
	var batches []*vector.Batch
	for lo := 0; lo < rows; lo += vector.BatchSize {
		b := vector.NewBatch([]vector.Type{vector.Int64, vector.Int64})
		for i := lo; i < lo+vector.BatchSize && i < rows; i++ {
			b.Vecs[0].AppendInt64(int64(i*7919) % int64(groups))
			b.Vecs[1].AppendInt64(int64(i))
		}
		batches = append(batches, b)
	}
	return batches
}

// benchAgg runs one aggregation over in per iteration and reports the input
// rate.
func benchAgg(b *testing.B, in []*vector.Batch, groupCols []int, aggs []AggSpec) {
	rows := 0
	for _, x := range in {
		rows += x.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := NewHashAgg(newMemOp(in[0].Types(), in...), groupCols, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Collect(agg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// BenchmarkHashAggGroupedInt64 is the plain-agg-par shape: 750 k rows in
// 1000 int64 groups, COUNT(*) and SUM per group.
func BenchmarkHashAggGroupedInt64(b *testing.B) {
	benchAgg(b, aggBenchInput(750_000, 1000), []int{0},
		[]AggSpec{{Func: CountStar, Col: -1}, {Func: Sum, Col: 1}})
}

// BenchmarkHashAggGlobalCount is the global COUNT(*) that tops the
// nsc-join and nuc-distinct plans, over 1 M rows.
func BenchmarkHashAggGlobalCount(b *testing.B) {
	benchAgg(b, aggBenchInput(1_000_000, 1000), nil, []AggSpec{{Func: CountStar, Col: -1}})
}

// genericPartial returns the constructor of the reference partial for an
// aggregation: the same columnar state as classifyFastAgg's choice, keyed
// by the encodeValue map keyer whenever there are group columns. A global
// aggregation has no keyer to swap, so its reference computes COUNT(DISTINCT)
// with per-group sets rather than as a keyed DISTINCT.
func genericPartial(groupCols []int, aggs []AggSpec, in []vector.Type) func() aggPartial {
	if len(groupCols) == 0 {
		return func() aggPartial { return newGroupAgg(nil, aggs, in, nil) }
	}
	return func() aggPartial { return newGroupAgg(groupCols, aggs, in, newMapKeyer(colTypes(groupCols, in))) }
}

// TestClassifyFastAggTypedPaths pins the keyer of the aggregations the
// benchmark workloads run, so a refactor cannot send them back to the map
// keyer unnoticed: GROUP BY payload with COUNT(*) and SUM (plain-agg-par),
// a global COUNT(c) (the NUC distinct rewrite's outer count) and a global
// COUNT(*) (nsc-join).
func TestClassifyFastAggTypedPaths(t *testing.T) {
	in := []vector.Type{vector.Int64, vector.Int64}
	grouped := classifyFastAgg([]int{0}, []AggSpec{{Func: CountStar, Col: -1}, {Func: Sum, Col: 1}}, in)()
	if p, ok := grouped.(*groupAgg); !ok {
		t.Errorf("GROUP BY int64: partial %T, want *groupAgg", grouped)
	} else if _, ok := p.keyer.(*int64Keyer); !ok {
		t.Errorf("GROUP BY int64: keyer %T, want *int64Keyer", p.keyer)
	}
	for _, spec := range []AggSpec{{Func: Count, Col: 1}, {Func: CountStar, Col: -1}} {
		global := classifyFastAgg(nil, []AggSpec{spec}, in)()
		if p, ok := global.(*groupAgg); !ok || p.keyer != nil {
			t.Errorf("global %v: partial %T, want *groupAgg without a keyer", spec.Func, global)
		}
	}
}

// FuzzGroupedAgg checks the Int64Table keyer against the generic map keyer:
// a GROUP BY over one int64 or date key (with NULLs and the extreme values)
// and a random list of aggregates over an int64 and a float64 column with
// NULLs, split into 1–4 inputs, must produce the same rows in the same
// order. shape picks the input count (bits 0-1), the batch size (bits 2-6)
// and a date key (bit 7); each byte of specs is one aggregate; each three
// bytes of rows are one row's key, int and float values.
func FuzzGroupedAgg(f *testing.F) {
	f.Add(uint8(0), []byte{0, 8}, []byte{1, 2, 3, 0xFF, 5, 6, 1, 0xFF, 9})
	f.Add(uint8(0x87), []byte{2, 3, 4, 9, 10}, []byte{0xFF, 1, 1, 0xFE, 2, 2, 0xFD, 3, 3, 0xFC, 4, 4, 0xFF, 5, 5, 0xFE, 6, 6})
	f.Add(uint8(0x0E), []byte{}, []byte{7, 0, 0, 7, 0, 0, 0xFF, 0, 0, 8, 0, 0, 0xFF, 0, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, shape uint8, specs []byte, rows []byte) {
		k := 1 + int(shape%4)
		size := 1 + int(shape>>2&0x1F)
		types := []vector.Type{vector.Int64, vector.Int64, vector.Float64}
		if shape&0x80 != 0 {
			types[0] = vector.Date
		}
		var aggs []AggSpec
		for _, b := range specs[:min(len(specs), 8)] {
			fn := []AggFunc{CountStar, Count, Sum, Min, Max, CountDistinct}[b%6]
			col := 1 + int(b/6%2)
			if fn == CountStar {
				col = -1
			}
			aggs = append(aggs, AggSpec{Func: fn, Col: col})
		}
		// Row i goes to input i%k, in batches of size rows.
		inputs := make([][]*vector.Batch, k)
		for i := 0; i+3 <= len(rows); i += 3 {
			c := i / 3 % k
			if n := len(inputs[c]); n == 0 || inputs[c][n-1].Len() == size {
				inputs[c] = append(inputs[c], vector.NewBatch(types))
			}
			b := inputs[c][len(inputs[c])-1]
			switch key := rows[i]; key {
			case 0xFF:
				b.Vecs[0].AppendNull()
			case 0xFE:
				b.Vecs[0].AppendInt64(math.MinInt64)
			case 0xFD:
				b.Vecs[0].AppendInt64(math.MaxInt64)
			case 0xFC:
				b.Vecs[0].AppendInt64(0)
			default:
				b.Vecs[0].AppendInt64(int64(key%16) - 8)
			}
			if x := rows[i+1]; x%7 == 0 {
				b.Vecs[1].AppendNull()
			} else {
				b.Vecs[1].AppendInt64(int64(x) - 128)
			}
			if x := rows[i+2]; x%5 == 0 {
				b.Vecs[2].AppendNull()
			} else {
				b.Vecs[2].AppendFloat64(float64(x)/4 - 30)
			}
		}
		run := func(partial func() aggPartial) string {
			children := make([]Operator, k)
			for c := range children {
				children[c] = newMemOp(types, inputs[c]...)
			}
			agg, err := NewParallelAgg(2, []int{0}, aggs, children...)
			if err != nil {
				t.Fatal(err)
			}
			if partial != nil {
				agg.newPartial = partial
			}
			out, err := Collect(agg)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(out)
		}
		if p, ok := classifyFastAgg([]int{0}, aggs, types)().(*groupAgg); !ok {
			t.Fatal("GROUP BY int64 is not a groupAgg")
		} else if _, ok := p.keyer.(*int64Keyer); !ok {
			t.Fatalf("GROUP BY int64 keyer is %T", p.keyer)
		}
		got, want := run(nil), run(genericPartial([]int{0}, aggs, types))
		if got != want {
			t.Fatalf("typed keyer:\n%s\ngeneric keyer:\n%s", got, want)
		}
	})
}
