package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"patchindex/internal/vector"
)

// updateSMA folds partition row `row` into the block SMA and the zone entry
// by boxing the cell and comparing Values: the per-cell path AppendColumns
// took before its typed fold, kept as that fold's oracle.
func (c *columnData) updateSMA(row int) {
	blk := row / BlockSize
	for len(c.smas) <= blk {
		c.smas = append(c.smas, sma{})
	}
	s := &c.smas[blk]
	vec := c.vec.Load()
	if vec.IsNull(row) {
		s.hasNull = true
		c.zone.hasNull = true
		return
	}
	v := vec.Value(row)
	if !s.valid {
		s.min, s.max, s.valid = v, v, true
	} else {
		if v.Compare(s.min) < 0 {
			s.min = v
		}
		if v.Compare(s.max) > 0 {
			s.max = v
		}
	}
	z := &c.zone
	if !z.valid {
		z.min, z.max, z.valid = v, v, true
		return
	}
	if v.Compare(z.min) < 0 {
		z.min = v
	}
	if v.Compare(z.max) > 0 {
		z.max = v
	}
}

// appendPerCell is the oracle's AppendColumns: one Vector.Append and one
// updateSMA per cell.
func appendPerCell(tab *Table, part int, cols []*vector.Vector) {
	p := tab.partitions[part]
	n := cols[0].Len()
	for c, v := range cols {
		dst := p.cols[c]
		vec := dst.vec.Load()
		for i := 0; i < n; i++ {
			vec.Append(v, i)
			dst.updateSMA(p.nrows + i)
		}
	}
	p.nrows += n
	p.staleRows += n
}

// allTypes is a table with one column of every type.
func allTypes(t testing.TB) *Table {
	t.Helper()
	tab, err := NewTable("t", NewSchema(
		Column{Name: "i", Typ: vector.Int64},
		Column{Name: "d", Typ: vector.Date},
		Column{Name: "f", Typ: vector.Float64},
		Column{Name: "s", Typ: vector.String},
		Column{Name: "b", Typ: vector.Bool},
	), 1)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// sameValue is Value equality with floats compared by their bits, so NaN
// equals NaN and -0 differs from +0.
func sameValue(a, b vector.Value) bool {
	return a.Typ == b.Typ && a.Null == b.Null && a.I64 == b.I64 && a.Str == b.Str && a.B == b.B &&
		math.Float64bits(a.F64) == math.Float64bits(b.F64)
}

func sameSMA(a, b sma) bool {
	return a.valid == b.valid && a.hasNull == b.hasNull && sameValue(a.min, b.min) && sameValue(a.max, b.max)
}

// checkSameTable fails unless got and want hold the same block SMAs and
// zone entries, field by field, and, with rows set, the same rows.
func checkSameTable(t *testing.T, got, want *Table, rows bool) {
	t.Helper()
	for pi, wp := range want.partitions {
		gp := got.partitions[pi]
		if gp.nrows != wp.nrows || gp.staleRows != wp.staleRows {
			t.Fatalf("partition %d: %d rows (%d stale), want %d (%d)", pi, gp.nrows, gp.staleRows, wp.nrows, wp.staleRows)
		}
		for c, wc := range wp.cols {
			gc := gp.cols[c]
			name := want.schema.Columns[c].Name
			if !sameSMA(gc.zone, wc.zone) {
				t.Fatalf("column %s: zone %+v, want %+v", name, gc.zone, wc.zone)
			}
			if len(gc.smas) != len(wc.smas) {
				t.Fatalf("column %s: %d block SMAs, want %d", name, len(gc.smas), len(wc.smas))
			}
			for blk := range wc.smas {
				if !sameSMA(gc.smas[blk], wc.smas[blk]) {
					t.Fatalf("column %s block %d: sma %+v, want %+v", name, blk, gc.smas[blk], wc.smas[blk])
				}
			}
			gv, wv := gc.vec.Load(), wc.vec.Load()
			if !rows {
				continue
			}
			if gv.Len() != wv.Len() {
				t.Fatalf("column %s: %d values, want %d", name, gv.Len(), wv.Len())
			}
			for r := 0; r < wv.Len(); r++ {
				if !sameValue(gv.Value(r), wv.Value(r)) {
					t.Fatalf("column %s row %d: %v, want %v", name, r, gv.Value(r), wv.Value(r))
				}
			}
		}
	}
}

// checkSamePruning fails unless PruneRanges and ZonePrunes answer alike on
// got and want for random bounds of each column's type (and, on the integer
// columns, fractional float bounds).
func checkSamePruning(t *testing.T, got, want *Table, rng *rand.Rand) {
	t.Helper()
	for c, col := range want.schema.Columns {
		for k := 0; k < 8; k++ {
			lo, hi := randBound(rng, col.Typ), randBound(rng, col.Typ)
			for _, keepNulls := range []bool{false, true} {
				g := got.PruneRanges(0, c, lo, hi, keepNulls)
				w := want.PruneRanges(0, c, lo, hi, keepNulls)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("column %s [%v, %v] keepNulls=%v: ranges %v, want %v", col.Name, lo, hi, keepNulls, g, w)
				}
			}
			if g, w := got.ZonePrunes(0, c, lo, hi), want.ZonePrunes(0, c, lo, hi); g != w {
				t.Fatalf("column %s [%v, %v]: zone prunes %v, want %v", col.Name, lo, hi, g, w)
			}
		}
	}
}

func randBound(rng *rand.Rand, typ vector.Type) vector.Value {
	switch rng.Intn(6) {
	case 0:
		return vector.NullValue(typ)
	case 1:
		if typ == vector.Int64 || typ == vector.Date {
			return vector.FloatValue(float64(rng.Intn(200)-100) + 0.5)
		}
	}
	switch typ {
	case vector.Int64:
		return vector.IntValue(int64(rng.Intn(200) - 100))
	case vector.Date:
		return vector.DateValue(int64(rng.Intn(200) - 100))
	case vector.Float64:
		return vector.FloatValue(float64(rng.Intn(200)-100) / 2)
	case vector.String:
		return vector.StringValue(keys[rng.Intn(len(keys))])
	default:
		return vector.BoolValue(rng.Intn(2) == 1)
	}
}

// Float specials a chunk draws from, besides ordinary values.
var floatSpecials = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}

// keys are the string column's values, in order.
var keys = func() []string {
	ks := make([]string, 200)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%03d", i)
	}
	return ks
}()

// chunkSizes are the generated chunk sizes: around BlockSize, the durable
// ingest batch, and a random one.
var chunkSizes = []int{1, BlockSize - 1, BlockSize, BlockSize + 1, 5000, 0}

// fuzzChunk builds one chunk of allTypes' columns from script bytes. A
// head byte h picks the chunk: h%8 < 6 generates chunkSizes[h%8] rows (a
// random 1..256 for the last) from the next byte as seed, with NULLs at
// density pct and float specials at the chunk start, in the middle and at
// random; h%8 ≥ 6 takes 1..8 literal rows, one byte each (see literal). It
// returns the chunk and the unread script.
func fuzzChunk(script []byte, pct int) ([]*vector.Vector, []byte) {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	cols := make([]*vector.Vector, 5)
	for c, typ := range []vector.Type{vector.Int64, vector.Date, vector.Float64, vector.String, vector.Bool} {
		cols[c] = vector.New(typ, 0)
	}
	h := next()
	if h%8 >= 6 {
		for k := int(next()%8) + 1; k > 0; k-- {
			literal(cols, next())
		}
		return cols, script
	}
	rng := rand.New(rand.NewSource(int64(h)<<8 | int64(next())))
	n := chunkSizes[h%8]
	if n == 0 {
		n = 1 + rng.Intn(256)
	}
	for r := 0; r < n; r++ {
		for _, v := range cols {
			if pct > 0 && rng.Intn(100) < pct {
				v.AppendNull()
				continue
			}
			x := rng.Intn(200) - 100
			switch v.Typ {
			case vector.Int64, vector.Date:
				v.AppendInt64(int64(x))
			case vector.Float64:
				f := float64(x) / 2
				if r == 0 || r == n/2 || rng.Intn(64) == 0 {
					f = floatSpecials[rng.Intn(len(floatSpecials))]
				}
				v.AppendFloat64(f)
			case vector.String:
				v.AppendString(keys[x+100])
			case vector.Bool:
				v.AppendBool(x%2 == 0)
			}
		}
	}
	return cols, script
}

// literal appends one row whose every column derives from code: 255 is
// NULL in every column; otherwise each column holds code-10 as its type
// has it, except that a code below len(floatSpecials) puts that special in
// the float column.
func literal(cols []*vector.Vector, code byte) {
	if code == 255 {
		for _, v := range cols {
			v.AppendNull()
		}
		return
	}
	x := int64(code) - 10
	cols[0].AppendInt64(x)
	cols[1].AppendInt64(x)
	if int(code) < len(floatSpecials) {
		cols[2].AppendFloat64(floatSpecials[code])
	} else {
		cols[2].AppendFloat64(float64(x))
	}
	cols[3].AppendString(keys[int(code)%len(keys)])
	cols[4].AppendBool(x%2 == 0)
}

// FuzzAppendZones: AppendColumns' typed fold against the per-cell oracle,
// over chunks of every type at NULL densities 0/1/50/100 %, float specials
// (NaN first, in the middle and at a chunk start; -0/+0 both ways; ±Inf),
// and chunk sizes that straddle BlockSize. Every block SMA and zone entry
// must equal the oracle's after every chunk, and pruning must agree.
func FuzzAppendZones(f *testing.F) {
	f.Add(uint8(0), []byte{6, 0, 11, 6, 1, 0, 15})         // [1] then [NaN, 5]
	f.Add(uint8(0), []byte{6, 1, 0, 11, 6, 3, 1, 2, 1, 2}) // NaN first; -0/+0 both ways
	f.Add(uint8(0), []byte{6, 1, 3, 4, 7, 2, 255, 0})      // ±Inf, then NULL and NaN
	f.Add(uint8(1), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})
	f.Add(uint8(2), []byte{4, 7, 3, 9, 1, 1, 6, 0, 0})
	f.Add(uint8(3), []byte{2, 5, 4, 8})
	f.Fuzz(func(t *testing.T, density uint8, script []byte) {
		pct := []int{0, 1, 50, 100}[density%4]
		got, want := allTypes(t), allTypes(t)
		rows := 0
		for len(script) > 0 && rows < 20_000 {
			var cols []*vector.Vector
			cols, script = fuzzChunk(script, pct)
			if err := got.AppendColumns(0, cols); err != nil {
				t.Fatal(err)
			}
			appendPerCell(want, 0, cols)
			checkSameTable(t, got, want, false)
			rows += cols[0].Len()
		}
		checkSameTable(t, got, want, true)
		checkSamePruning(t, got, want, rand.New(rand.NewSource(int64(rows))))
	})
}

// TestAppendColumnsNaNAtChunkStart: a chunk that starts with NaN, appended
// to a block whose min and max are 1, must still widen the block to its
// later values. A fold of the chunk on its own, merged into the block,
// would keep max 1 and prune f > 3 although the block holds 5.
func TestAppendColumnsNaNAtChunkStart(t *testing.T) {
	tab, err := NewTable("t", NewSchema(Column{Name: "f", Typ: vector.Float64}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range [][]float64{{1}, {math.NaN(), 5}} {
		if err := tab.AppendColumns(0, []*vector.Vector{vector.NewFromFloat64(chunk)}); err != nil {
			t.Fatal(err)
		}
	}
	z := tab.ZoneMap(0, 0)
	if z.Min.F64 != 1 || z.Max.F64 != 5 {
		t.Fatalf("zone = [%v, %v], want [1, 5]", z.Min, z.Max)
	}
	if tab.ZonePrunes(0, 0, vector.FloatValue(3), vector.NullValue(vector.Float64)) {
		t.Error("f > 3 pruned a partition holding 5")
	}
	if r := tab.PruneRanges(0, 0, vector.FloatValue(3), vector.NullValue(vector.Float64), false); len(r) != 1 {
		t.Errorf("f > 3 pruned the block holding 5: ranges %v", r)
	}
}

// TestAppendColumnsKeepsTypes: bounds are boxed with the column's type (a
// Date stays a Date), and a column of NULLs leaves them invalid.
func TestAppendColumnsKeepsTypes(t *testing.T) {
	tab := allTypes(t)
	dates, bools := vector.New(vector.Date, 2), vector.New(vector.Bool, 2)
	dates.AppendInt64(7)
	dates.AppendInt64(2)
	bools.AppendNull()
	bools.AppendNull()
	cols := []*vector.Vector{vector.NewFromInt64([]int64{3, -1}), dates,
		vector.NewFromFloat64([]float64{0.5, -0.5}), vector.NewFromString([]string{"b", "a"}), bools}
	if err := tab.AppendColumns(0, cols); err != nil {
		t.Fatal(err)
	}
	for c, want := range [][2]vector.Value{
		{vector.IntValue(-1), vector.IntValue(3)},
		{vector.DateValue(2), vector.DateValue(7)},
		{vector.FloatValue(-0.5), vector.FloatValue(0.5)},
		{vector.StringValue("a"), vector.StringValue("b")},
	} {
		z := tab.ZoneMap(0, c)
		if !z.Valid || z.HasNull || z.Min != want[0] || z.Max != want[1] {
			t.Errorf("column %d zone = %+v, want [%v, %v]", c, z, want[0], want[1])
		}
	}
	if z := tab.ZoneMap(0, 4); z.Valid || !z.HasNull {
		t.Errorf("all-NULL column zone = %+v", z)
	}
}

// BenchmarkAppendColumns reports AppendColumns' cost per cell for each
// type, at a durable-ingest batch (5,000 rows) and one benchmark set-up
// partition (125,000 rows), without NULLs and at 50 %. The table restarts
// empty once it holds 1 M rows.
func BenchmarkAppendColumns(b *testing.B) {
	for _, typ := range []vector.Type{vector.Int64, vector.Date, vector.Float64, vector.String, vector.Bool} {
		for _, rows := range []int{5000, 125_000} {
			for _, pct := range []int{0, 50} {
				b.Run(fmt.Sprintf("%s/rows=%d/nulls=%d", typ, rows, pct), func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					v := vector.New(typ, rows)
					for r := 0; r < rows; r++ {
						x := rng.Int63n(1 << 20)
						switch {
						case rng.Intn(100) < pct:
							v.AppendNull()
						case typ == vector.Float64:
							v.AppendFloat64(float64(x) / 3)
						case typ == vector.String:
							v.AppendString(fmt.Sprintf("key-%07d", x))
						case typ == vector.Bool:
							v.AppendBool(x%2 == 0)
						default:
							v.AppendInt64(x)
						}
					}
					schema := NewSchema(Column{Name: "c", Typ: typ})
					var tab *Table
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if tab == nil || tab.partitions[0].nrows >= 1<<20 {
							b.StopTimer()
							tab, _ = NewTable("t", schema, 1)
							b.StartTimer()
						}
						if err := tab.AppendColumns(0, []*vector.Vector{v}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/cell")
				})
			}
		}
	}
}
