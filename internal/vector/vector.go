// Package vector provides the typed column vectors and row batches that all
// operators of the engine exchange. A Vector is a fixed-type columnar array
// with an optional null mask; a Batch is a set of equally sized vectors plus
// row-identity metadata that the PatchSelect operator relies on.
package vector

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
)

// BatchSize is the maximum number of rows operators exchange per batch. The
// engine is vectorized: every operator consumes and produces batches of up to
// BatchSize rows, amortizing interpretation overhead as in Actian Vector.
const BatchSize = 1024

// Type enumerates the column types supported by the engine.
type Type uint8

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// Float64 is a 64-bit IEEE-754 column.
	Float64
	// String is a variable-length UTF-8 string column.
	String
	// Bool is a boolean column.
	Bool
	// Date is a day-granularity date column stored as days since epoch.
	Date
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	case Date:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// TypeFromName parses a SQL type name into a Type. It accepts the common
// aliases used by the SQL front-end.
func TypeFromName(name string) (Type, error) {
	switch name {
	case "BIGINT", "INT", "INTEGER", "INT8", "LONG":
		return Int64, nil
	case "DOUBLE", "FLOAT", "FLOAT8", "REAL", "DECIMAL":
		return Float64, nil
	case "VARCHAR", "TEXT", "STRING", "CHAR":
		return String, nil
	case "BOOLEAN", "BOOL":
		return Bool, nil
	case "DATE":
		return Date, nil
	default:
		return 0, fmt.Errorf("vector: unknown type name %q", name)
	}
}

// Vector is a typed columnar array of up to BatchSize values (inside batches)
// or arbitrarily many values (inside storage blocks). Exactly one of the
// typed slices is active, selected by Typ. Nulls, when non-nil, marks value i
// as NULL; a nil Nulls slice means the vector contains no NULLs.
type Vector struct {
	Typ   Type
	I64   []int64
	F64   []float64
	Str   []string
	B     []bool
	Nulls []bool
	n     int
}

// New returns an empty vector of type t with capacity for capHint values.
func New(t Type, capHint int) *Vector {
	v := &Vector{Typ: t}
	switch t {
	case Int64, Date:
		v.I64 = make([]int64, 0, capHint)
	case Float64:
		v.F64 = make([]float64, 0, capHint)
	case String:
		v.Str = make([]string, 0, capHint)
	case Bool:
		v.B = make([]bool, 0, capHint)
	}
	return v
}

// NewLen returns a vector of type t with length n (zero values, no NULLs).
// Kernels and the residual interpreted evaluators fill it by index
// assignment instead of growing it through Append*, which keeps the hot
// loops free of bounds-growth branches and allocations.
func NewLen(t Type, n int) *Vector {
	v := &Vector{Typ: t, n: n}
	switch t {
	case Int64, Date:
		v.I64 = make([]int64, n)
	case Float64:
		v.F64 = make([]float64, n)
	case String:
		v.Str = make([]string, n)
	case Bool:
		v.B = make([]bool, n)
	}
	return v
}

// Resize adjusts the vector to length n (values undefined where grown) and
// clears the null mask. It reuses the existing capacity when possible, so a
// pooled output vector costs no allocation in steady state.
func (v *Vector) Resize(n int) {
	grow := func(c int) bool { return c < n }
	switch v.Typ {
	case Int64, Date:
		if grow(cap(v.I64)) {
			v.I64 = make([]int64, n)
		} else {
			v.I64 = v.I64[:n]
		}
	case Float64:
		if grow(cap(v.F64)) {
			v.F64 = make([]float64, n)
		} else {
			v.F64 = v.F64[:n]
		}
	case String:
		if grow(cap(v.Str)) {
			v.Str = make([]string, n)
		} else {
			v.Str = v.Str[:n]
		}
	case Bool:
		if grow(cap(v.B)) {
			v.B = make([]bool, n)
		} else {
			v.B = v.B[:n]
		}
	}
	v.Nulls = nil
	v.n = n
}

// SetNullAt marks value i as NULL, materializing the null mask on first use.
// The typed slot keeps whatever value it holds; readers must consult the
// mask first, as everywhere else in the engine.
func (v *Vector) SetNullAt(i int) {
	if v.Nulls == nil || len(v.Nulls) < v.n {
		nulls := make([]bool, v.n)
		copy(nulls, v.Nulls)
		v.Nulls = nulls
	}
	v.Nulls[i] = true
}

// NewFromInt64 wraps the given slice (not copied) into an Int64 vector.
func NewFromInt64(vals []int64) *Vector {
	return &Vector{Typ: Int64, I64: vals, n: len(vals)}
}

// NewFromFloat64 wraps the given slice (not copied) into a Float64 vector.
func NewFromFloat64(vals []float64) *Vector {
	return &Vector{Typ: Float64, F64: vals, n: len(vals)}
}

// NewFromString wraps the given slice (not copied) into a String vector.
func NewFromString(vals []string) *Vector {
	return &Vector{Typ: String, Str: vals, n: len(vals)}
}

// NewFromBool wraps the given slice (not copied) into a Bool vector.
func NewFromBool(vals []bool) *Vector {
	return &Vector{Typ: Bool, B: vals, n: len(vals)}
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int { return v.n }

// SetLen adjusts the logical length after the caller filled the typed slice
// directly. The typed slice must already have at least n elements.
func (v *Vector) SetLen(n int) {
	v.n = n
	switch v.Typ {
	case Int64, Date:
		v.I64 = v.I64[:n]
	case Float64:
		v.F64 = v.F64[:n]
	case String:
		v.Str = v.Str[:n]
	case Bool:
		v.B = v.B[:n]
	}
	if v.Nulls != nil {
		v.Nulls = v.Nulls[:n]
	}
}

// IsNull reports whether value i is NULL.
func (v *Vector) IsNull(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// HasNulls reports whether any value in the vector is NULL.
func (v *Vector) HasNulls() bool {
	if v.Nulls == nil {
		return false
	}
	for _, b := range v.Nulls {
		if b {
			return true
		}
	}
	return false
}

// ensureNulls materializes the null mask so individual entries can be set.
func (v *Vector) ensureNulls() {
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.n, max(cap(v.I64), max(cap(v.F64), max(cap(v.Str), max(cap(v.B), v.n)))))
	}
	for len(v.Nulls) < v.n {
		v.Nulls = append(v.Nulls, false)
	}
}

// AppendNull appends a NULL value (zero in the typed slice, null mask set).
func (v *Vector) AppendNull() {
	switch v.Typ {
	case Int64, Date:
		v.I64 = append(v.I64, 0)
	case Float64:
		v.F64 = append(v.F64, 0)
	case String:
		v.Str = append(v.Str, "")
	case Bool:
		v.B = append(v.B, false)
	}
	v.n++
	v.ensureNulls()
	v.Nulls[v.n-1] = true
}

// AppendInt64 appends a non-NULL int64/date value.
func (v *Vector) AppendInt64(x int64) {
	v.I64 = append(v.I64, x)
	v.n++
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
}

// AppendFloat64 appends a non-NULL float64 value.
func (v *Vector) AppendFloat64(x float64) {
	v.F64 = append(v.F64, x)
	v.n++
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
}

// AppendString appends a non-NULL string value.
func (v *Vector) AppendString(x string) {
	v.Str = append(v.Str, x)
	v.n++
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
}

// AppendBool appends a non-NULL bool value.
func (v *Vector) AppendBool(x bool) {
	v.B = append(v.B, x)
	v.n++
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
}

// Append copies value i of src (which must have the same type) onto v.
func (v *Vector) Append(src *Vector, i int) {
	if src.IsNull(i) {
		v.AppendNull()
		return
	}
	switch v.Typ {
	case Int64, Date:
		v.AppendInt64(src.I64[i])
	case Float64:
		v.AppendFloat64(src.F64[i])
	case String:
		v.AppendString(src.Str[i])
	case Bool:
		v.AppendBool(src.B[i])
	}
}

// AppendValue appends a Value, which must match the vector type or be NULL.
func (v *Vector) AppendValue(val Value) error {
	if val.Null {
		v.AppendNull()
		return nil
	}
	if val.Typ != v.Typ && !(v.Typ == Date && val.Typ == Int64) && !(v.Typ == Int64 && val.Typ == Date) {
		return fmt.Errorf("vector: cannot append %s value to %s vector", val.Typ, v.Typ)
	}
	switch v.Typ {
	case Int64, Date:
		v.AppendInt64(val.I64)
	case Float64:
		v.AppendFloat64(val.F64)
	case String:
		v.AppendString(val.Str)
	case Bool:
		v.AppendBool(val.B)
	}
	return nil
}

// Reset truncates the vector to zero length, keeping capacity.
func (v *Vector) Reset() {
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
	v.B = v.B[:0]
	if v.Nulls != nil {
		v.Nulls = v.Nulls[:0]
	}
	v.n = 0
}

// Value extracts value i as a boxed Value.
func (v *Vector) Value(i int) Value {
	if v.IsNull(i) {
		return Value{Typ: v.Typ, Null: true}
	}
	switch v.Typ {
	case Int64, Date:
		return Value{Typ: v.Typ, I64: v.I64[i]}
	case Float64:
		return Value{Typ: v.Typ, F64: v.F64[i]}
	case String:
		return Value{Typ: v.Typ, Str: v.Str[i]}
	case Bool:
		return Value{Typ: v.Typ, B: v.B[i]}
	default:
		panic("vector: unknown type")
	}
}

// Slice returns a view of rows [lo,hi) sharing the underlying arrays.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{Typ: v.Typ, n: hi - lo}
	switch v.Typ {
	case Int64, Date:
		out.I64 = v.I64[lo:hi]
	case Float64:
		out.F64 = v.F64[lo:hi]
	case String:
		out.Str = v.Str[lo:hi]
	case Bool:
		out.B = v.B[lo:hi]
	}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[lo:hi]
	}
	return out
}

// SliceInto writes a view of rows [lo,hi) into out, sharing the underlying
// arrays. It is Slice without the allocation: scans reuse one Vector header
// per column across batches.
func (v *Vector) SliceInto(out *Vector, lo, hi int) {
	out.Typ = v.Typ
	out.n = hi - lo
	out.I64, out.F64, out.Str, out.B, out.Nulls = nil, nil, nil, nil, nil
	switch v.Typ {
	case Int64, Date:
		out.I64 = v.I64[lo:hi]
	case Float64:
		out.F64 = v.F64[lo:hi]
	case String:
		out.Str = v.Str[lo:hi]
	case Bool:
		out.B = v.B[lo:hi]
	}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[lo:hi]
	}
}

// Gather appends the rows of src (same type) selected by idx onto v. As with
// AppendRange, the typed slot of a NULL row keeps src's value.
func (v *Vector) Gather(src *Vector, idx []int) {
	switch v.Typ {
	case Int64, Date:
		for _, i := range idx {
			v.I64 = append(v.I64, src.I64[i])
		}
	case Float64:
		for _, i := range idx {
			v.F64 = append(v.F64, src.F64[i])
		}
	case String:
		for _, i := range idx {
			v.Str = append(v.Str, src.Str[i])
		}
	case Bool:
		for _, i := range idx {
			v.B = append(v.B, src.B[i])
		}
	}
	v.n += len(idx)
	switch {
	case src.Nulls == nil && v.Nulls == nil:
	case src.Nulls == nil:
		for range idx {
			v.Nulls = append(v.Nulls, false)
		}
	default:
		v.ensureNullsUpTo(v.n - len(idx))
		for _, i := range idx {
			v.Nulls = append(v.Nulls, src.Nulls[i])
		}
	}
}

// AppendRange bulk-appends rows [lo,hi) of src (same type) onto v.
func (v *Vector) AppendRange(src *Vector, lo, hi int) {
	if hi <= lo {
		return
	}
	n := hi - lo
	switch v.Typ {
	case Int64, Date:
		v.I64 = append(v.I64, src.I64[lo:hi]...)
	case Float64:
		v.F64 = append(v.F64, src.F64[lo:hi]...)
	case String:
		v.Str = append(v.Str, src.Str[lo:hi]...)
	case Bool:
		v.B = append(v.B, src.B[lo:hi]...)
	}
	v.n += n
	switch {
	case src.Nulls == nil && v.Nulls == nil:
		// no masks involved
	case src.Nulls == nil:
		for i := 0; i < n; i++ {
			v.Nulls = append(v.Nulls, false)
		}
	default:
		v.ensureNullsUpTo(v.n - n)
		v.Nulls = append(v.Nulls, src.Nulls[lo:hi]...)
	}
}

// AppendExcept appends rows [0,n) of src (same type) onto v, except the
// ascending positions in skip, which must lie in [0,n). It is AppendRange
// over the runs between the skipped rows, with one type switch for the
// whole call, and the same null-mask handling.
func (v *Vector) AppendExcept(src *Vector, skip []int, n int) {
	kept := n - len(skip)
	if kept <= 0 {
		return
	}
	switch v.Typ {
	case Int64, Date:
		v.I64 = appendExcept(v.I64, src.I64[:n], skip)
	case Float64:
		v.F64 = appendExcept(v.F64, src.F64[:n], skip)
	case String:
		v.Str = appendExcept(v.Str, src.Str[:n], skip)
	case Bool:
		v.B = appendExcept(v.B, src.B[:n], skip)
	}
	v.n += kept
	switch {
	case src.Nulls == nil && v.Nulls == nil:
		// no masks involved
	case src.Nulls == nil:
		for i := 0; i < kept; i++ {
			v.Nulls = append(v.Nulls, false)
		}
	default:
		v.ensureNullsUpTo(v.n - kept)
		v.Nulls = appendExcept(v.Nulls, src.Nulls[:n], skip)
	}
}

// appendExcept appends src minus the ascending positions in skip onto dst,
// growing dst once and appending the non-empty runs between skipped
// positions.
func appendExcept[T any](dst, src []T, skip []int) []T {
	dst = slices.Grow(dst, len(src)-len(skip))
	lo := 0
	for _, s := range skip {
		if s > lo {
			dst = append(dst, src[lo:s]...)
		}
		lo = s + 1
	}
	return append(dst, src[lo:]...)
}

// ensureNullsUpTo backfills the null mask with false up to length n.
func (v *Vector) ensureNullsUpTo(n int) {
	if v.Nulls == nil {
		v.Nulls = make([]bool, 0, v.n)
	}
	for len(v.Nulls) < n {
		v.Nulls = append(v.Nulls, false)
	}
}

// Compare compares value i of v against value j of other under SQL semantics
// where NULL sorts before every non-NULL value (needed for stable merge
// behaviour; query-level predicates treat NULL separately). It returns a
// negative, zero or positive number.
func (v *Vector) Compare(i int, other *Vector, j int) int {
	ni, nj := v.IsNull(i), other.IsNull(j)
	switch {
	case ni && nj:
		return 0
	case ni:
		return -1
	case nj:
		return 1
	}
	switch v.Typ {
	case Int64, Date:
		return cmpOrdered(v.I64[i], other.I64[j])
	case Float64:
		return cmpOrdered(v.F64[i], other.F64[j])
	case String:
		return cmpOrdered(v.Str[i], other.Str[j])
	case Bool:
		bi, bj := 0, 0
		if v.B[i] {
			bi = 1
		}
		if other.B[j] {
			bj = 1
		}
		return bi - bj
	default:
		panic("vector: unknown type")
	}
}

// Float64KeyBits returns the bits of x for use in a hash or equality key:
// math.Float64bits with -0.0 mapped to +0.0, because the two compare equal
// under = but differ in their bits. Every encoder that turns a float into a
// grouping, distinct, join or constraint key goes through it, so all of
// them agree on which floats are the same value.
func Float64KeyBits(x float64) uint64 {
	if x == 0 {
		x = 0
	}
	return math.Float64bits(x)
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Value is a boxed scalar used at plan build time (literals) and in row
// oriented interfaces (test helpers, result iteration).
type Value struct {
	Typ  Type
	Null bool
	I64  int64
	F64  float64
	Str  string
	B    bool
}

// NullValue returns a NULL of the given type.
func NullValue(t Type) Value { return Value{Typ: t, Null: true} }

// IntValue boxes an int64.
func IntValue(x int64) Value { return Value{Typ: Int64, I64: x} }

// FloatValue boxes a float64.
func FloatValue(x float64) Value { return Value{Typ: Float64, F64: x} }

// StringValue boxes a string.
func StringValue(x string) Value { return Value{Typ: String, Str: x} }

// BoolValue boxes a bool.
func BoolValue(x bool) Value { return Value{Typ: Bool, B: x} }

// DateValue boxes a day-since-epoch date.
func DateValue(days int64) Value { return Value{Typ: Date, I64: days} }

// DateFromTime converts a time.Time to a Date value (UTC days since epoch).
func DateFromTime(t time.Time) Value {
	return DateValue(t.UTC().Unix() / 86400)
}

// Compare compares two values with NULL sorting first.
func (a Value) Compare(b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	switch a.Typ {
	case Int64, Date:
		return cmpOrdered(a.I64, b.I64)
	case Float64:
		return cmpOrdered(a.F64, b.F64)
	case String:
		return cmpOrdered(a.Str, b.Str)
	case Bool:
		ai, bi := 0, 0
		if a.B {
			ai = 1
		}
		if b.B {
			bi = 1
		}
		return ai - bi
	default:
		panic("vector: unknown type")
	}
}

// CmpIntFloat compares an int64 against a float64 exactly, without rounding
// the integer through float64 (which silently corrupts comparisons for
// |i| > 2^53). NaN compares equal to everything, preserving the behaviour of
// the old float-promoting comparison (neither < nor > held, so it reported
// 0); ±Inf are handled by the range guards.
func CmpIntFloat(i int64, f float64) int {
	if math.IsNaN(f) {
		return 0
	}
	// 2^63 and above (or below -2^63): f is outside int64 range entirely.
	if f >= 9223372036854775808.0 {
		return -1
	}
	if f < -9223372036854775808.0 {
		return 1
	}
	// f ∈ [-2^63, 2^63): truncation is exact and in range. For |f| ≥ 2^53
	// the float is integral, so tr == f and frac is 0; below that both the
	// truncation and the subtraction are exact.
	tr := int64(f)
	switch {
	case i < tr:
		return -1
	case i > tr:
		return 1
	}
	frac := f - float64(tr)
	switch {
	case frac > 0:
		return -1
	case frac < 0:
		return 1
	default:
		return 0
	}
}

// CompareNumeric compares two values like Compare but handles mixed
// Int64/Date vs Float64 pairs exactly. Planning uses it wherever a literal's
// type may differ from the column's (SMA bounds, zone maps).
func CompareNumeric(a, b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	aInt := a.Typ == Int64 || a.Typ == Date
	bInt := b.Typ == Int64 || b.Typ == Date
	switch {
	case aInt && b.Typ == Float64:
		return CmpIntFloat(a.I64, b.F64)
	case a.Typ == Float64 && bInt:
		return -CmpIntFloat(b.I64, a.F64)
	default:
		return a.Compare(b)
	}
}

// Equal reports value equality with NULL == NULL being false (SQL semantics).
func (a Value) Equal(b Value) bool {
	if a.Null || b.Null {
		return false
	}
	return a.Compare(b) == 0
}

// String renders the value for result display.
func (a Value) String() string {
	if a.Null {
		return "NULL"
	}
	switch a.Typ {
	case Int64:
		return strconv.FormatInt(a.I64, 10)
	case Date:
		return time.Unix(a.I64*86400, 0).UTC().Format("2006-01-02")
	case Float64:
		return strconv.FormatFloat(a.F64, 'g', -1, 64)
	case String:
		return a.Str
	case Bool:
		if a.B {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Batch is the unit of exchange between operators: a list of equally sized
// vectors. BaseRow and Contiguous implement the paper's requirement that
// PatchSelect can assume "rowIDs of incoming tuples are equal to tuple
// identifiers": scans emit contiguous batches and record the first row id, so
// patch application never materializes an id column. Any operator that
// filters or reorders rows must clear Contiguous.
type Batch struct {
	Vecs []*Vector
	// BaseRow is the table-local row id of row 0, valid if Contiguous.
	BaseRow uint64
	// Contiguous marks that row i has row id BaseRow+i.
	Contiguous bool
	// Sel, when non-nil, is a selection vector: only the physical row
	// positions it lists (ascending) are logically part of the batch. It is
	// an opt-in protocol between adjacent operators — a producer may attach
	// it only when its consumer declared support (Filter → Project), and
	// consumers that understand it must emit dense batches themselves.
	// Everything else in the engine ignores Sel and sees physical rows.
	Sel []int
}

// NewBatch creates a batch with vectors of the given types.
func NewBatch(types []Type) *Batch {
	b := &Batch{Vecs: make([]*Vector, len(types))}
	for i, t := range types {
		b.Vecs[i] = New(t, BatchSize)
	}
	return b
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// RowCount returns the logical number of rows: the selection length when a
// selection vector is attached, the physical length otherwise.
func (b *Batch) RowCount() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Len()
}

// Reset truncates all vectors and clears row-identity metadata.
func (b *Batch) Reset() {
	for _, v := range b.Vecs {
		v.Reset()
	}
	b.BaseRow = 0
	b.Contiguous = false
	b.Sel = nil
}

// Types returns the column types of the batch.
func (b *Batch) Types() []Type {
	ts := make([]Type, len(b.Vecs))
	for i, v := range b.Vecs {
		ts[i] = v.Typ
	}
	return ts
}

// Row extracts row i as boxed values (test and display helper).
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.Vecs))
	for c, v := range b.Vecs {
		out[c] = v.Value(i)
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
