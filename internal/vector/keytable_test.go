package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// appendKey appends an equality key for row i of v to buf: a type tag (plus
// a length for strings, so composite keys stay unambiguous) and the value's
// bytes, with -0.0 and +0.0 encoded alike and NULL as its own tag. Keys
// were once found by putting these bytes in a Go map; that map is the
// oracle KeyTable is checked against.
func appendKey(buf []byte, v *Vector, i int) []byte {
	if v.IsNull(i) {
		return append(buf, 0)
	}
	switch v.Typ {
	case Int64, Date:
		buf = binary.LittleEndian.AppendUint64(append(buf, 1), uint64(v.I64[i]))
	case Float64:
		buf = binary.LittleEndian.AppendUint64(append(buf, 2), Float64KeyBits(v.F64[i]))
	case String:
		buf = binary.LittleEndian.AppendUint32(append(buf, 3), uint32(len(v.Str[i])))
		buf = append(buf, v.Str[i]...)
	case Bool:
		buf = append(buf, 4)
		if v.B[i] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// keyOracle numbers keys in first-insert order through a map of encoded
// rows.
type keyOracle struct {
	ids  map[string]int32
	keys []string // encoded key of each id
	buf  []byte
}

func (o *keyOracle) encode(cols []*Vector, i int) string {
	o.buf = o.buf[:0]
	for _, v := range cols {
		o.buf = appendKey(o.buf, v, i)
	}
	return string(o.buf)
}

func (o *keyOracle) insert(cols []*Vector, i int) int32 {
	k := o.encode(cols, i)
	id, ok := o.ids[k]
	if !ok {
		id = int32(len(o.keys))
		o.ids[k] = id
		o.keys = append(o.keys, k)
	}
	return id
}

func (o *keyOracle) lookup(cols []*Vector, i int) int32 {
	if id, ok := o.ids[o.encode(cols, i)]; ok {
		return id
	}
	return -1
}

// checkKeyTable inserts batches into a KeyTable and the map oracle and
// compares ids, lookups, Len and AppendKeys; probe batches are looked up
// only. Every probe's key is looked up after all inserts.
func checkKeyTable(t *testing.T, types []Type, capacity int, batches, probes [][]*Vector) {
	t.Helper()
	tab := NewKeyTable(types, capacity)
	o := &keyOracle{ids: map[string]int32{}}
	ids := make([]int32, 0)
	for _, cols := range batches {
		n := cols[0].Len()
		ids = append(ids[:0], make([]int32, n)...)
		tab.InsertBatch(cols, n, ids)
		for i, id := range ids {
			if want := o.insert(cols, i); id != want {
				t.Fatalf("insert row %q: id %d, want %d", o.encode(cols, i), id, want)
			}
		}
		if tab.Len() != len(o.keys) {
			t.Fatalf("Len %d, want %d", tab.Len(), len(o.keys))
		}
	}
	for _, cols := range append(append([][]*Vector{}, batches...), probes...) {
		n := cols[0].Len()
		ids = append(ids[:0], make([]int32, n)...)
		tab.LookupBatch(cols, n, ids)
		for i, id := range ids {
			if want := o.lookup(cols, i); id != want {
				t.Fatalf("lookup row %q: id %d, want %d", o.encode(cols, i), id, want)
			}
		}
	}
	out := make([]*Vector, len(types))
	for c, typ := range types {
		out[c] = New(typ, 0)
	}
	tab.AppendKeys(out, 0, tab.Len()/2)
	tab.AppendKeys(out, tab.Len()/2, tab.Len())
	if out[0].Len() != tab.Len() {
		t.Fatalf("AppendKeys gave %d keys, want %d", out[0].Len(), tab.Len())
	}
	for id, want := range o.keys {
		if got := o.encode(out, id); got != want {
			t.Fatalf("AppendKeys key %d: %q, want %q", id, got, want)
		}
	}
}

// Two NaN bit patterns: NaNs with equal bits are one key, unequal bits two.
var (
	nanA = math.Float64frombits(0x7ff8000000000001)
	nanB = math.Float64frombits(0xfff8000000000002)
)

func TestKeyTableFloatKeys(t *testing.T) {
	v := NewFromFloat64([]float64{0, math.Copysign(0, -1), nanA, nanB, nanA, 1.5, math.Inf(1), nanB})
	v.AppendNull()
	v.AppendNull()
	tab := NewKeyTable([]Type{Float64}, 0)
	ids := make([]int32, v.Len())
	tab.InsertBatch([]*Vector{v}, v.Len(), ids)
	if got, want := fmt.Sprint(ids), "[0 0 1 2 1 3 4 2 5 5]"; got != want {
		t.Fatalf("ids %s, want %s", got, want)
	}
	checkKeyTable(t, []Type{Float64}, 0, [][]*Vector{{v}}, nil)
}

func TestKeyTableNullIsOneKey(t *testing.T) {
	for _, typ := range []Type{Int64, Date, Float64, String, Bool} {
		v := New(typ, 0)
		w := New(typ, 0)
		for i := 0; i < 5; i++ {
			v.AppendNull()
		}
		w.AppendNull()
		tab := NewKeyTable([]Type{typ}, 0)
		ids := make([]int32, 5)
		tab.InsertBatch([]*Vector{v}, 5, ids)
		if fmt.Sprint(ids) != "[0 0 0 0 0]" || tab.Len() != 1 {
			t.Fatalf("%s: NULL ids %v, Len %d", typ, ids, tab.Len())
		}
		tab.LookupBatch([]*Vector{w}, 1, ids)
		if ids[0] != 0 {
			t.Fatalf("%s: NULL looked up as %d", typ, ids[0])
		}
	}
}

// TestKeyTableIntNullIDs places the NULL key first, in the middle and last
// among the integer keys, which the single-integer path numbers by hand.
func TestKeyTableIntNullIDs(t *testing.T) {
	mk := func(vals ...int64) *Vector {
		v := New(Int64, 0)
		for _, x := range vals {
			if x < 0 {
				v.AppendNull()
			} else {
				v.AppendInt64(x)
			}
		}
		return v
	}
	for _, batches := range [][]*Vector{
		{mk(-1, 1, 2), mk(2, 3, -1)},
		{mk(1, 2, -1, 2), mk(4, -1, 1, 5)},
		{mk(1, 2), mk(3), mk(-1), mk(4, 1)},
		{mk(-1, -1), mk(7)},
	} {
		var in [][]*Vector
		for _, b := range batches {
			in = append(in, []*Vector{b})
		}
		checkKeyTable(t, []Type{Int64}, 0, in, [][]*Vector{{mk(9, -1, 4)}})
	}
	tab := NewKeyTable([]Type{Int64}, 0)
	ids := make([]int32, 2)
	tab.InsertBatch([]*Vector{mk(1)}, 1, ids)
	tab.LookupBatch([]*Vector{mk(-1, 1)}, 2, ids)
	if ids[0] != -1 || ids[1] != 0 {
		t.Fatalf("lookup of NULL in a table without one: %v", ids)
	}
}

func TestKeyTableCompositeKeys(t *testing.T) {
	a := NewFromString([]string{"x", "x", "", "xy", "x", ""})
	b := NewFromInt64([]int64{1, 2, 1, 1, 1, 1})
	tab := NewKeyTable([]Type{String, Int64}, 0)
	ids := make([]int32, 6)
	tab.InsertBatch([]*Vector{a, b}, 6, ids)
	if got, want := fmt.Sprint(ids), "[0 1 2 3 0 2]"; got != want {
		t.Fatalf("ids %s, want %s", got, want)
	}
}

// TestHashRowsIntegerIsTableHash pins the one-integer-column row hash to
// Int64Table's, which Grace partitioning relies on to route integer keys
// as it always has.
func TestHashRowsIntegerIsTableHash(t *testing.T) {
	for _, typ := range []Type{Int64, Date} {
		v := New(typ, 0)
		for _, x := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 73049} {
			v.AppendInt64(x)
		}
		h := make([]uint64, v.Len())
		HashRows([]*Vector{v}, 0, v.Len(), h)
		for i, x := range v.I64 {
			if h[i] != uint64(x)*hashMul {
				t.Fatalf("%s %d: hash %x, want %x", typ, x, h[i], uint64(x)*hashMul)
			}
		}
	}
}

// genKeyColumn returns a column of type typ with one value per byte of
// data: a small domain, so keys repeat, plus each type's edge values.
// nullPct percent of the rows, picked by their bytes and positions, are
// NULL.
func genKeyColumn(typ Type, data []byte, nullPct int) *Vector {
	v := New(typ, len(data))
	for i, b := range data {
		if (int(b)*37+i*11)%100 < nullPct {
			v.AppendNull()
			continue
		}
		switch typ {
		case Int64, Date:
			switch b {
			case 0x7f:
				v.AppendInt64(math.MaxInt64)
			case 0x80:
				v.AppendInt64(math.MinInt64)
			default:
				v.AppendInt64(int64(int8(b)) % 9)
			}
		case Float64:
			switch b % 12 {
			case 0:
				v.AppendFloat64(0)
			case 1:
				v.AppendFloat64(math.Copysign(0, -1))
			case 2:
				v.AppendFloat64(nanA)
			case 3:
				v.AppendFloat64(nanB)
			case 4:
				v.AppendFloat64(math.Inf(-1))
			default:
				v.AppendFloat64(float64(int(b)%7) - 3.5)
			}
		case String:
			// Lengths 0–19 cross the hash's 8-byte words.
			v.AppendString(strings.Repeat("k", int(b)%20) + string(rune('a'+b%3)))
		case Bool:
			v.AppendBool(b%2 == 0)
		}
	}
	return v
}

// FuzzKeyTable checks KeyTable against the map of encoded keys: 1–3 key
// columns of Int64, Date, Float64, String or Bool at NULL densities of 0, 1,
// 50 and 100 %, inserted in batches and looked up again. The first byte
// picks the column count (mod 3), the NULL density (bits 2-3) and the
// batch size (bits 4-7); the next three bytes pick each column's type; each
// later group of one byte per column is one row.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 0, 1, 2, 3, 1, 2, 0x7f, 0x80, 0x7f})
	f.Add([]byte{0x31, 2, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 1, 1, 13, 13, 2, 14})
	f.Add([]byte{0x5e, 3, 4, 1, 5, 6, 7, 5, 6, 7, 8, 9, 10, 5, 6, 7})
	f.Add([]byte{0x24, 2, 0, 0, 0, 1, 2, 3, 12, 13, 14, 15, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		ncol := 1 + int(data[0]%3)
		nullPct := []int{0, 1, 50, 100}[data[0]>>2&3]
		size := 1 + int(data[0]>>4)*5
		types := make([]Type, ncol)
		for c := range types {
			types[c] = []Type{Int64, Date, Float64, String, Bool}[data[1+c]%5]
		}
		rows := data[4:]
		nrows := len(rows) / ncol
		cols := make([]*Vector, ncol)
		for c := range cols {
			col := make([]byte, nrows)
			for r := range col {
				col[r] = rows[r*ncol+c]
			}
			cols[c] = genKeyColumn(types[c], col, nullPct)
		}
		var batches [][]*Vector
		for lo := 0; lo < nrows; lo += size {
			b := make([]*Vector, ncol)
			for c := range b {
				b[c] = cols[c].Slice(lo, min(lo+size, nrows))
			}
			batches = append(batches, b)
		}
		// Probes: every row with its columns' bytes shifted, mostly keys
		// never inserted.
		probe := make([]*Vector, ncol)
		for c := range probe {
			col := make([]byte, nrows)
			for r := range col {
				col[r] = rows[r*ncol+c] + 1
			}
			probe[c] = genKeyColumn(types[c], col, nullPct)
		}
		checkKeyTable(t, types, int(data[0]&3)*4, batches, [][]*Vector{probe})
	})
}

// BenchmarkKeyTableInsertBatch inserts 200 k rows with 5 % duplicates per
// key shape: one BIGINT (the Int64Table path), one email-like string, and
// a (BIGINT, string) pair.
func BenchmarkKeyTableInsertBatch(b *testing.B) {
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	ints := New(Int64, n)
	strs := New(String, n)
	for i := 0; i < n; i++ {
		k := i
		if rng.Intn(20) == 0 {
			k = rng.Intn(n / 100)
		}
		ints.AppendInt64(int64(k))
		strs.AppendString(fmt.Sprintf("customer%07d@example.org", k))
	}
	for _, sh := range []struct {
		name string
		cols []*Vector
	}{
		{"int64", []*Vector{ints}},
		{"string", []*Vector{strs}},
		{"int64+string", []*Vector{ints, strs}},
	} {
		types := make([]Type, len(sh.cols))
		for c, v := range sh.cols {
			types[c] = v.Typ
		}
		ids := make([]int32, BatchSize)
		b.Run(sh.name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				tab := NewKeyTable(types, n)
				for lo := 0; lo < n; lo += BatchSize {
					hi := min(lo+BatchSize, n)
					batch := make([]*Vector, len(sh.cols))
					for c, v := range sh.cols {
						batch[c] = v.Slice(lo, hi)
					}
					tab.InsertBatch(batch, hi-lo, ids)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
		})
	}
}

// TestKeyTableSingleIntegerRunsOnInt64Table pins the typed path the
// benchmark's aggregations and joins take: one Int64 or Date key column
// runs on an Int64Table, every other shape on the general table.
func TestKeyTableSingleIntegerRunsOnInt64Table(t *testing.T) {
	for _, typ := range []Type{Int64, Date} {
		if NewKeyTable([]Type{typ}, 0).ints == nil {
			t.Errorf("one %s column: not on an Int64Table", typ)
		}
	}
	for _, types := range [][]Type{{String}, {Float64}, {Bool}, {Int64, Int64}} {
		if NewKeyTable(types, 0).ints != nil {
			t.Errorf("%v: on an Int64Table", types)
		}
	}
}
