package vector

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Int64:   "BIGINT",
		Float64: "DOUBLE",
		String:  "VARCHAR",
		Bool:    "BOOLEAN",
		Date:    "DATE",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", typ, got, want)
		}
	}
	if got := Type(250).String(); got != "Type(250)" {
		t.Errorf("unknown type string: %q", got)
	}
}

func TestTypeFromName(t *testing.T) {
	for name, want := range map[string]Type{
		"BIGINT": Int64, "INT": Int64, "INTEGER": Int64, "LONG": Int64,
		"DOUBLE": Float64, "FLOAT": Float64, "REAL": Float64,
		"VARCHAR": String, "TEXT": String, "STRING": String,
		"BOOLEAN": Bool, "BOOL": Bool,
		"DATE": Date,
	} {
		got, err := TypeFromName(name)
		if err != nil || got != want {
			t.Errorf("TypeFromName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := TypeFromName("BLOB"); err == nil {
		t.Error("TypeFromName(BLOB) should fail")
	}
}

func TestAppendAndLen(t *testing.T) {
	v := New(Int64, 4)
	if v.Len() != 0 {
		t.Fatalf("new vector has length %d", v.Len())
	}
	v.AppendInt64(1)
	v.AppendInt64(2)
	v.AppendNull()
	if v.Len() != 3 {
		t.Fatalf("length = %d, want 3", v.Len())
	}
	if v.IsNull(0) || v.IsNull(1) || !v.IsNull(2) {
		t.Errorf("null mask wrong: %v", v.Nulls)
	}
	// After the first null, further appends must extend the mask.
	v.AppendInt64(9)
	if v.IsNull(3) {
		t.Error("value appended after null marked null")
	}
	if v.I64[3] != 9 {
		t.Errorf("value = %d, want 9", v.I64[3])
	}
}

func TestAppendAllTypes(t *testing.T) {
	iv := New(Int64, 0)
	iv.AppendInt64(7)
	fv := New(Float64, 0)
	fv.AppendFloat64(1.5)
	sv := New(String, 0)
	sv.AppendString("x")
	bv := New(Bool, 0)
	bv.AppendBool(true)
	dv := New(Date, 0)
	dv.AppendInt64(100)
	for _, v := range []*Vector{iv, fv, sv, bv, dv} {
		if v.Len() != 1 || v.IsNull(0) {
			t.Errorf("vector %v wrong after append", v.Typ)
		}
	}
	if iv.Value(0).I64 != 7 || fv.Value(0).F64 != 1.5 || sv.Value(0).Str != "x" || !bv.Value(0).B || dv.Value(0).I64 != 100 {
		t.Error("values round-trip incorrectly")
	}
}

func TestAppendValueTypeMismatch(t *testing.T) {
	v := New(Int64, 0)
	if err := v.AppendValue(StringValue("no")); err == nil {
		t.Error("appending string to int vector should fail")
	}
	// Date/Int64 interop is allowed.
	if err := v.AppendValue(DateValue(3)); err != nil {
		t.Errorf("date into int64: %v", err)
	}
	d := New(Date, 0)
	if err := d.AppendValue(IntValue(5)); err != nil {
		t.Errorf("int64 into date: %v", err)
	}
	if err := v.AppendValue(NullValue(String)); err != nil {
		t.Errorf("null of any type should append: %v", err)
	}
}

func TestSliceSharesData(t *testing.T) {
	v := New(Int64, 0)
	for i := 0; i < 10; i++ {
		if i == 5 {
			v.AppendNull()
			continue
		}
		v.AppendInt64(int64(i))
	}
	s := v.Slice(3, 8)
	if s.Len() != 5 {
		t.Fatalf("slice length %d, want 5", s.Len())
	}
	if s.I64[0] != 3 {
		t.Errorf("slice start wrong: %d", s.I64[0])
	}
	if !s.IsNull(2) {
		t.Error("null at original position 5 lost in slice")
	}
}

func TestGatherAndReset(t *testing.T) {
	src := New(String, 0)
	for _, s := range []string{"a", "b", "c", "d"} {
		src.AppendString(s)
	}
	dst := New(String, 0)
	dst.Gather(src, []int{3, 1})
	if dst.Len() != 2 || dst.Str[0] != "d" || dst.Str[1] != "b" {
		t.Errorf("gather result %v", dst.Str)
	}
	dst.Reset()
	if dst.Len() != 0 {
		t.Errorf("reset failed: len %d", dst.Len())
	}
}

// TestAppendRangeEquivalence: AppendRange must match element-wise Append for
// random vectors with random null patterns (property-based).
func TestAppendRangeEquivalence(t *testing.T) {
	f := func(vals []int64, nullMask []bool, loRaw, hiRaw uint8) bool {
		src := New(Int64, len(vals))
		for i, x := range vals {
			if i < len(nullMask) && nullMask[i] {
				src.AppendNull()
			} else {
				src.AppendInt64(x)
			}
		}
		if src.Len() == 0 {
			return true
		}
		lo := int(loRaw) % src.Len()
		hi := lo + int(hiRaw)%(src.Len()-lo+1)

		a := New(Int64, 0)
		a.AppendInt64(-1) // pre-existing content
		a.AppendRange(src, lo, hi)

		b := New(Int64, 0)
		b.AppendInt64(-1)
		for i := lo; i < hi; i++ {
			b.Append(src, i)
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if a.IsNull(i) != b.IsNull(i) {
				return false
			}
			if !a.IsNull(i) && a.I64[i] != b.I64[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAppendRangeStrings(t *testing.T) {
	src := New(String, 0)
	src.AppendString("a")
	src.AppendNull()
	src.AppendString("c")
	dst := New(String, 0)
	dst.AppendRange(src, 0, 3)
	if dst.Len() != 3 || dst.Str[0] != "a" || !dst.IsNull(1) || dst.Str[2] != "c" {
		t.Errorf("string AppendRange wrong: %v nulls=%v", dst.Str, dst.Nulls)
	}
}

func TestCompareNullsFirst(t *testing.T) {
	v := New(Int64, 0)
	v.AppendNull()
	v.AppendInt64(1)
	v.AppendInt64(1)
	v.AppendInt64(2)
	if v.Compare(0, v, 1) >= 0 {
		t.Error("NULL should sort before non-NULL")
	}
	if v.Compare(1, v, 0) <= 0 {
		t.Error("non-NULL should sort after NULL")
	}
	if v.Compare(1, v, 2) != 0 {
		t.Error("equal values should compare 0")
	}
	if v.Compare(1, v, 3) >= 0 || v.Compare(3, v, 1) <= 0 {
		t.Error("ordering wrong")
	}
}

func TestCompareAllTypes(t *testing.T) {
	f := New(Float64, 0)
	f.AppendFloat64(1.5)
	f.AppendFloat64(2.5)
	if f.Compare(0, f, 1) >= 0 {
		t.Error("float compare wrong")
	}
	s := New(String, 0)
	s.AppendString("abc")
	s.AppendString("abd")
	if s.Compare(0, s, 1) >= 0 {
		t.Error("string compare wrong")
	}
	b := New(Bool, 0)
	b.AppendBool(false)
	b.AppendBool(true)
	if b.Compare(0, b, 1) >= 0 {
		t.Error("bool compare wrong: false < true")
	}
}

func TestValueCompareAndEqual(t *testing.T) {
	if IntValue(1).Compare(IntValue(2)) >= 0 {
		t.Error("1 < 2 expected")
	}
	if NullValue(Int64).Compare(IntValue(1)) >= 0 {
		t.Error("NULL sorts first")
	}
	if NullValue(Int64).Compare(NullValue(Int64)) != 0 {
		t.Error("NULL == NULL for sorting")
	}
	if NullValue(Int64).Equal(NullValue(Int64)) {
		t.Error("NULL never Equal (SQL semantics)")
	}
	if !StringValue("x").Equal(StringValue("x")) {
		t.Error("equal strings")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{IntValue(42), "42"},
		{FloatValue(1.5), "1.5"},
		{StringValue("hi"), "hi"},
		{BoolValue(true), "true"},
		{BoolValue(false), "false"},
		{NullValue(Int64), "NULL"},
		{DateValue(0), "1970-01-01"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestDateFromTime(t *testing.T) {
	tm := time.Date(2020, 3, 1, 15, 30, 0, 0, time.UTC)
	v := DateFromTime(tm)
	if v.Typ != Date {
		t.Fatalf("type %v", v.Typ)
	}
	if got := v.String(); got != "2020-03-01" {
		t.Errorf("date = %q", got)
	}
}

func TestBatchBasics(t *testing.T) {
	b := NewBatch([]Type{Int64, String})
	if b.Len() != 0 {
		t.Fatalf("empty batch length %d", b.Len())
	}
	b.Vecs[0].AppendInt64(1)
	b.Vecs[1].AppendString("one")
	if b.Len() != 1 {
		t.Fatalf("batch length %d", b.Len())
	}
	row := b.Row(0)
	if row[0].I64 != 1 || row[1].Str != "one" {
		t.Errorf("row = %v", row)
	}
	types := b.Types()
	if len(types) != 2 || types[0] != Int64 || types[1] != String {
		t.Errorf("types = %v", types)
	}
	b.BaseRow, b.Contiguous = 7, true
	b.Reset()
	if b.Len() != 0 || b.BaseRow != 0 || b.Contiguous {
		t.Error("reset did not clear batch state")
	}
}

func TestSetLen(t *testing.T) {
	v := New(Int64, 8)
	v.I64 = append(v.I64, 1, 2, 3, 4)
	v.SetLen(4)
	if v.Len() != 4 {
		t.Fatalf("len %d", v.Len())
	}
	v.SetLen(2)
	if v.Len() != 2 || len(v.I64) != 2 {
		t.Errorf("truncate failed: %d %d", v.Len(), len(v.I64))
	}
}

func TestHasNulls(t *testing.T) {
	v := New(Int64, 0)
	v.AppendInt64(1)
	if v.HasNulls() {
		t.Error("no nulls expected")
	}
	v.AppendNull()
	if !v.HasNulls() {
		t.Error("null expected")
	}
}

// TestGatherRandom cross-checks Gather against manual copying.
func TestGatherRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := New(Float64, 0)
	for i := 0; i < 100; i++ {
		if rng.Intn(10) == 0 {
			src.AppendNull()
		} else {
			src.AppendFloat64(rng.Float64())
		}
	}
	idx := rng.Perm(100)[:37]
	dst := New(Float64, 0)
	dst.Gather(src, idx)
	for k, i := range idx {
		if dst.IsNull(k) != src.IsNull(i) {
			t.Fatalf("null mismatch at %d", k)
		}
		if !dst.IsNull(k) && dst.F64[k] != src.F64[i] {
			t.Fatalf("value mismatch at %d", k)
		}
	}
}

// TestGatherNullMask: the typed gather keeps NULLs whether the source,
// the destination, both or neither carry a mask.
func TestGatherNullMask(t *testing.T) {
	withNull := New(Int64, 0)
	withNull.AppendInt64(10)
	withNull.AppendNull()
	withNull.AppendInt64(30)
	noMask := New(Int64, 0)
	noMask.AppendInt64(7)
	noMask.AppendInt64(8)

	dst := New(Int64, 0)
	dst.Gather(noMask, []int{1, 0})
	if dst.Nulls != nil {
		t.Errorf("mask invented from mask-free source: %v", dst.Nulls)
	}
	dst.Gather(withNull, []int{2, 1, 0})
	dst.Gather(noMask, []int{0})
	wantVals := []int64{8, 7, 30, 0, 10, 7}
	wantNull := []bool{false, false, false, true, false, false}
	if dst.Len() != len(wantVals) || len(dst.Nulls) != dst.Len() {
		t.Fatalf("len %d, mask len %d", dst.Len(), len(dst.Nulls))
	}
	for i := range wantVals {
		if dst.IsNull(i) != wantNull[i] {
			t.Errorf("row %d: null=%v", i, dst.IsNull(i))
		}
		if !wantNull[i] && dst.I64[i] != wantVals[i] {
			t.Errorf("row %d: %d, want %d", i, dst.I64[i], wantVals[i])
		}
	}
}

// TestAppendExceptMatchesAppendRange: for every type and every null-mask
// combination (neither side masked, only the destination, the source),
// AppendExcept leaves the destination exactly as one AppendRange per run
// between the skipped rows does.
func TestAppendExceptMatchesAppendRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fill := func(v *Vector, rows int, nullPct int) {
		for i := 0; i < rows; i++ {
			if rng.Intn(100) < nullPct {
				v.AppendNull()
				continue
			}
			switch v.Typ {
			case Int64, Date:
				v.AppendInt64(rng.Int63())
			case Float64:
				v.AppendFloat64(rng.Float64())
			case String:
				v.AppendString(string(rune('a' + rng.Intn(26))))
			case Bool:
				v.AppendBool(rng.Intn(2) == 0)
			}
		}
	}
	cases := []struct {
		name             string
		srcNull, dstNull int
	}{{"src nil/dst nil", 0, 0}, {"src nil/dst set", 0, 100}, {"src set/dst nil", 20, 0}, {"src set/dst set", 20, 100}}
	for _, typ := range []Type{Int64, Float64, String, Bool, Date} {
		for _, c := range cases {
			for trial := 0; trial < 50; trial++ {
				src := New(typ, 0)
				n := rng.Intn(300)
				fill(src, n, c.srcNull)
				if c.srcNull > 0 && n > 0 && src.Nulls == nil {
					src.SetNullAt(0)
				}
				var skip []int
				for i := 0; i < n; i++ {
					if rng.Intn([]int{2, 10, 100}[trial%3]) == 0 {
						skip = append(skip, i)
					}
				}
				got, want := New(typ, 0), New(typ, 0)
				pre := rng.Intn(3)
				if c.dstNull > 0 {
					pre++
				}
				fill(got, pre, c.dstNull)
				want.AppendRange(got, 0, pre)

				got.AppendExcept(src, skip, n)
				lo := 0
				for _, s := range append(skip, n) {
					want.AppendRange(src, lo, s)
					lo = s + 1
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %s n=%d skip=%v:\n got  %+v\n want %+v", typ, c.name, n, skip, got, want)
				}
			}
		}
	}
}

// TestAppendRepeatMatchesAppend: for every type, a NULL or non-NULL source
// value (with or without a source mask) and a destination with or without a
// mask, AppendRepeat reads back exactly as a loop of Append does.
func TestAppendRepeatMatchesAppend(t *testing.T) {
	vals := map[Type]Value{Int64: IntValue(-7), Float64: FloatValue(2.5), String: StringValue("x"),
		Bool: BoolValue(true), Date: DateValue(19000)}
	for _, typ := range []Type{Int64, Float64, String, Bool, Date} {
		for _, srcCase := range []string{"value", "value in masked source", "NULL"} {
			for _, dstMasked := range []bool{false, true} {
				src := New(typ, 2)
				if err := src.AppendValue(vals[typ]); err != nil {
					t.Fatal(err)
				}
				switch srcCase {
				case "value in masked source":
					src.AppendNull()
				case "NULL":
					src = New(typ, 1)
					src.AppendNull()
				}
				got, want := New(typ, 0), New(typ, 0)
				for _, v := range []*Vector{got, want} {
					v.AppendValue(vals[typ])
					if dstMasked {
						v.AppendNull()
					}
				}
				for _, n := range []int{0, 1, 5} {
					got.AppendRepeat(src, 0, n)
					for k := 0; k < n; k++ {
						want.Append(src, 0)
					}
				}
				if got.Len() != want.Len() {
					t.Fatalf("%v %s dstMasked=%v: len %d, want %d", typ, srcCase, dstMasked, got.Len(), want.Len())
				}
				for i := 0; i < want.Len(); i++ {
					g, w := got.Value(i), want.Value(i)
					if g.Null != w.Null || !w.Null && g.Compare(w) != 0 {
						t.Fatalf("%v %s dstMasked=%v row %d: %v, want %v", typ, srcCase, dstMasked, i, g, w)
					}
				}
			}
		}
	}
}

func TestKeyCompatible(t *testing.T) {
	for _, tc := range []struct {
		a, b Type
		want bool
	}{{Int64, Int64, true}, {Int64, Date, true}, {Date, Int64, true}, {String, String, true},
		{Int64, Float64, false}, {Float64, Date, false}, {String, Int64, false}, {Bool, Int64, false}} {
		if got := KeyCompatible(tc.a, tc.b); got != tc.want {
			t.Errorf("KeyCompatible(%v, %v) = %v", tc.a, tc.b, got)
		}
	}
}
