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

// TestClassifyFastAggTypedPaths pins that the aggregations the benchmark
// workloads run hand vector.KeyTable one integer key column, which it runs
// on its Int64Table path (TestKeyTableSingleIntegerRunsOnInt64Table pins
// that half): GROUP BY payload with COUNT(*) and SUM (plain-agg-par), the
// DISTINCT over the patches of the NUC distinct rewrite and the global
// COUNT(DISTINCT) it replaces (nuc-distinct). A global COUNT(c) (the
// rewrite's outer count) and a global COUNT(*) (nsc-join) have no key
// table at all.
func TestClassifyFastAggTypedPaths(t *testing.T) {
	in := []vector.Type{vector.Int64, vector.Int64}
	oneInt := []vector.Type{vector.Int64}
	for _, c := range []struct {
		name string
		p    *groupAgg
	}{
		{"GROUP BY int64", newGroupAgg([]int{0}, []AggSpec{{Func: CountStar, Col: -1}, {Func: Sum, Col: 1}}, in)},
		{"DISTINCT int64", newGroupAgg([]int{0}, nil, in)},
	} {
		if c.p.keys == nil || !slices.Equal(c.p.keyTypes, oneInt) {
			t.Errorf("%s: key table over %v, want %v", c.name, c.p.keyTypes, oneInt)
		}
	}
	cd := newGroupAgg(nil, []AggSpec{{Func: CountDistinct, Col: 0}}, in)
	if got := cd.state.cols[0].distTypes; cd.keys != nil || !slices.Equal(got, oneInt) {
		t.Errorf("global COUNT(DISTINCT int64): distinct table over %v, want %v", got, oneInt)
	}
	for _, spec := range []AggSpec{{Func: Count, Col: 1}, {Func: CountStar, Col: -1}} {
		if p := newGroupAgg(nil, []AggSpec{spec}, in); p.keys != nil || p.state.cols[0].dist != nil {
			t.Errorf("global %v: has a key table", spec.Func)
		}
	}
}

// FuzzGroupedAgg checks the KeyTable-keyed aggregation against the map
// keyed reference: a GROUP BY over a key of one of five kinds (int64, date,
// string, float64 with both zeros and two NaNs, and an (int64, string)
// pair), with NULLs and each type's edge values, and a random list of
// aggregates over an int64 and a float64 column with NULLs, split into 1–4
// inputs, must produce the same rows in the same order as the reference
// over the concatenated inputs. shape picks the input count (bits 0-1) and
// the batch size (bits 2-6); keyKind picks the key (mod 5); each byte of
// specs is one aggregate; each three bytes of rows are one row's key, int
// and float values.
func FuzzGroupedAgg(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 8}, []byte{1, 2, 3, 0xFF, 5, 6, 1, 0xFF, 9})
	f.Add(uint8(0x07), uint8(1), []byte{2, 3, 4, 9, 10}, []byte{0xFF, 1, 1, 0xFE, 2, 2, 0xFD, 3, 3, 0xFC, 4, 4, 0xFF, 5, 5, 0xFE, 6, 6})
	f.Add(uint8(0x0E), uint8(0), []byte{}, []byte{7, 0, 0, 7, 0, 0, 0xFF, 0, 0, 8, 0, 0, 0xFF, 0, 0, 7, 0, 0})
	f.Add(uint8(0x05), uint8(2), []byte{5, 11, 0}, []byte{0xFE, 1, 1, 0xFD, 2, 2, 3, 3, 3, 0xFE, 4, 4, 0xFF, 5, 5, 3, 6, 6})
	f.Add(uint8(0x0A), uint8(3), []byte{0, 5, 2, 4}, []byte{0xFE, 1, 1, 0xFB, 2, 2, 0xFD, 3, 3, 0xFC, 4, 4, 0xFD, 5, 5, 0xFF, 6, 6})
	f.Add(uint8(0x01), uint8(4), []byte{0, 1, 5}, []byte{0, 1, 1, 4, 2, 2, 0xFF, 3, 3, 0xFE, 4, 4, 16, 5, 5, 0, 6, 6})
	f.Fuzz(func(t *testing.T, shape, keyKind uint8, specs []byte, rows []byte) {
		k := 1 + int(shape%4)
		size := 1 + int(shape>>2&0x1F)
		keyTypes := [][]vector.Type{
			{vector.Int64}, {vector.Date}, {vector.String}, {vector.Float64}, {vector.Int64, vector.String},
		}[keyKind%5]
		nk := len(keyTypes)
		types := append(slices.Clone(keyTypes), vector.Int64, vector.Float64)
		groupCols := []int{0, 1}[:nk]
		var aggs []AggSpec
		for _, b := range specs[:min(len(specs), 8)] {
			fn := []AggFunc{CountStar, Count, Sum, Min, Max, CountDistinct}[b%6]
			col := nk + int(b/6%2)
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
			appendFuzzKey(b.Vecs[:nk], rows[i])
			if x := rows[i+1]; x%7 == 0 {
				b.Vecs[nk].AppendNull()
			} else {
				b.Vecs[nk].AppendInt64(int64(x) - 128)
			}
			if x := rows[i+2]; x%5 == 0 {
				b.Vecs[nk+1].AppendNull()
			} else {
				b.Vecs[nk+1].AppendFloat64(float64(x)/4 - 30)
			}
		}
		run := func(partial func() aggPartial) string {
			children := make([]Operator, k)
			for c := range children {
				children[c] = newMemOp(types, inputs[c]...)
			}
			agg, err := NewParallelAgg(2, groupCols, aggs, children...)
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
		got, want := run(nil), run(genericPartial(groupCols, aggs, types))
		if got != want {
			t.Fatalf("KeyTable:\n%s\nmap reference:\n%s", got, want)
		}
	})
}

// appendFuzzKey appends the key byte x to the key columns of
// FuzzGroupedAgg: 0xFF is NULL, a few more bytes are the type's edge values
// and the rest fall into a small domain, so keys repeat.
func appendFuzzKey(keys []*vector.Vector, x byte) {
	if len(keys) == 2 {
		// (int64, string): NULL in either column, four values in each.
		if x == 0xFF {
			keys[0].AppendNull()
		} else {
			keys[0].AppendInt64(int64(x % 4))
		}
		if x == 0xFE {
			keys[1].AppendNull()
		} else {
			keys[1].AppendString(strings.Repeat("s", int(x/4%4)*3))
		}
		return
	}
	v := keys[0]
	if x == 0xFF {
		v.AppendNull()
		return
	}
	switch v.Typ {
	case vector.Int64, vector.Date:
		switch x {
		case 0xFE:
			v.AppendInt64(math.MinInt64)
		case 0xFD:
			v.AppendInt64(math.MaxInt64)
		case 0xFC:
			v.AppendInt64(0)
		default:
			v.AppendInt64(int64(x%16) - 8)
		}
	case vector.String:
		s := map[byte]string{0xFE: "", 0xFD: "a key longer than eight bytes", 0xFC: "0"}
		if str, ok := s[x]; ok {
			v.AppendString(str)
		} else {
			v.AppendString(fmt.Sprint(int(x%16) - 8))
		}
	case vector.Float64:
		f := map[byte]float64{
			0xFE: math.Copysign(0, -1), 0xFB: 0,
			0xFD: math.Float64frombits(0x7ff8000000000001), 0xFC: math.Float64frombits(0xfff8000000000002),
		}
		if fx, ok := f[x]; ok {
			v.AppendFloat64(fx)
		} else {
			v.AppendFloat64(float64(int(x%16)-8) / 2)
		}
	}
}

// aggKeyBenchInput returns rows rows in full batches: column 0 cycles
// through groups int64 keys in a scattered order, column 1 is a value,
// column 2 is column 0's key as an email-like string, the shape of Table
// I's c_email_address, and column 3 is one of 100 coarse groups.
func aggKeyBenchInput(rows, groups int) []*vector.Batch {
	in := aggBenchInput(rows, groups)
	for _, b := range in {
		s := vector.New(vector.String, b.Len())
		g := vector.New(vector.Int64, b.Len())
		for r, k := range b.Vecs[0].I64 {
			s.AppendString(fmt.Sprintf("customer%08d@example.org", k))
			g.AppendInt64(b.Vecs[1].I64[r] % 100)
		}
		b.Vecs = append(b.Vecs, s, g)
	}
	return in
}

// BenchmarkHashAggKeys covers the key shapes no benchmark workload runs,
// next to their integer counterparts, over 200 k rows: GROUP BY with
// COUNT(*) and SUM in 1,000 groups, DISTINCT and global COUNT(DISTINCT)
// over 50,000 values, and COUNT(DISTINCT) of those values in 100 groups.
func BenchmarkHashAggKeys(b *testing.B) {
	const rows = 200_000
	few, many := aggKeyBenchInput(rows, 1000), aggKeyBenchInput(rows, 50_000)
	sums := []AggSpec{{Func: CountStar, Col: -1}, {Func: Sum, Col: 1}}
	for _, c := range []struct {
		name      string
		in        []*vector.Batch
		groupCols []int
		aggs      []AggSpec
	}{
		{"groupby/int64", few, []int{0}, sums},
		{"groupby/string", few, []int{2}, sums},
		{"groupby/int64+string", few, []int{0, 2}, sums},
		{"distinct/int64", many, []int{0}, nil},
		{"distinct/string", many, []int{2}, nil},
		{"distinct/int64+string", many, []int{0, 2}, nil},
		{"countdistinct/int64", many, nil, []AggSpec{{Func: CountDistinct, Col: 0}}},
		{"countdistinct/string", many, nil, []AggSpec{{Func: CountDistinct, Col: 2}}},
		{"countdistinct/grouped-int64", many, []int{3}, []AggSpec{{Func: CountDistinct, Col: 0}}},
		{"countdistinct/grouped-string", many, []int{3}, []AggSpec{{Func: CountDistinct, Col: 2}}},
	} {
		b.Run(c.name, func(b *testing.B) { benchAgg(b, c.in, c.groupCols, c.aggs) })
	}
}
