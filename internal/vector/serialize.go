package vector

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary vector codec. The write-ahead log's data records and the executor's
// spill files both serialize whole column vectors; this is their shared
// little-endian format:
//
//	typ      uint8
//	n        uint32
//	nullbits uint8 (0 = no mask, 1 = bitmap of (n+7)/8 bytes follows values)
//	values   type-dependent (fixed 8 bytes for Int64/Date/Float64, bit-packed
//	         for Bool, u32-length-prefixed bytes for String)
//	nulls    optional bitmap
//
// The codec appends to a caller-provided buffer so spill writers and the WAL
// reuse one scratch buffer across records.

// ByteSize estimates the in-memory footprint of the vector's payload: the
// capacity-backed typed slice plus string contents and the null mask. Spill
// budgets and the segment cache charge vectors by this number.
func (v *Vector) ByteSize() int64 {
	var b int64
	switch v.Typ {
	case Int64, Date:
		b = 8 * int64(cap(v.I64))
	case Float64:
		b = 8 * int64(cap(v.F64))
	case String:
		b = 16 * int64(cap(v.Str))
		for _, s := range v.Str {
			b += int64(len(s))
		}
	case Bool:
		b = int64(cap(v.B))
	}
	if v.Nulls != nil {
		b += int64(cap(v.Nulls))
	}
	return b
}

// RowsByteSize prices the first n rows by what they hold rather than by
// the backing array: 8 B a row for Int64, Date and Float64, 1 B for Bool,
// the 16 B header plus the bytes for String, and 1 B a row more under a
// null mask. A batch that views a larger array (a scan's SliceInto) costs
// only its own rows, so a spill budget charges what an accumulator gains.
func (v *Vector) RowsByteSize(n int) int64 {
	rows := int64(n)
	var b int64
	switch v.Typ {
	case Int64, Date, Float64:
		b = 8 * rows
	case String:
		b = 16 * rows
		for _, s := range v.Str[:n] {
			b += int64(len(s))
		}
	case Bool:
		b = rows
	}
	if v.Nulls != nil {
		b += rows
	}
	return b
}

// AppendBinary serializes the vector onto buf and returns the extended
// buffer.
func (v *Vector) AppendBinary(buf []byte) []byte {
	n := v.Len()
	buf = append(buf, byte(v.Typ))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	hasNulls := v.HasNulls()
	if hasNulls {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	switch v.Typ {
	case Int64, Date:
		for _, x := range v.I64[:n] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case Float64:
		for _, x := range v.F64[:n] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	case String:
		for _, s := range v.Str[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	case Bool:
		buf = appendBitmapBools(buf, v.B[:n])
	}
	if hasNulls {
		buf = appendBitmapBools(buf, v.Nulls[:n])
	}
	return buf
}

// appendBitmapBools bit-packs a bool slice, LSB-first.
func appendBitmapBools(buf []byte, bs []bool) []byte {
	nb := (len(bs) + 7) / 8
	start := len(buf)
	for i := 0; i < nb; i++ {
		buf = append(buf, 0)
	}
	for i, b := range bs {
		if b {
			buf[start+i>>3] |= 1 << (i & 7)
		}
	}
	return buf
}

// DecodeVector decodes one vector from data, returning it and the number of
// bytes consumed.
func DecodeVector(data []byte) (*Vector, int, error) {
	if len(data) < 6 {
		return nil, 0, fmt.Errorf("vector: truncated header")
	}
	typ := Type(data[0])
	if typ > Date {
		return nil, 0, fmt.Errorf("vector: unknown type tag %d", data[0])
	}
	n := int(binary.LittleEndian.Uint32(data[1:5]))
	hasNulls := data[5] == 1
	pos := 6
	v := NewLen(typ, n)
	switch typ {
	case Int64, Date:
		if len(data) < pos+8*n {
			return nil, 0, fmt.Errorf("vector: truncated int payload")
		}
		for i := 0; i < n; i++ {
			v.I64[i] = int64(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
	case Float64:
		if len(data) < pos+8*n {
			return nil, 0, fmt.Errorf("vector: truncated float payload")
		}
		for i := 0; i < n; i++ {
			v.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
	case String:
		for i := 0; i < n; i++ {
			if len(data) < pos+4 {
				return nil, 0, fmt.Errorf("vector: truncated string length")
			}
			ln := int(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
			if ln > len(data)-pos {
				return nil, 0, fmt.Errorf("vector: truncated string payload")
			}
			v.Str[i] = string(data[pos : pos+ln])
			pos += ln
		}
	case Bool:
		nb := (n + 7) / 8
		if len(data) < pos+nb {
			return nil, 0, fmt.Errorf("vector: truncated bool payload")
		}
		for i := 0; i < n; i++ {
			v.B[i] = data[pos+i>>3]&(1<<(i&7)) != 0
		}
		pos += nb
	}
	if hasNulls {
		nb := (n + 7) / 8
		if len(data) < pos+nb {
			return nil, 0, fmt.Errorf("vector: truncated null mask")
		}
		v.Nulls = make([]bool, n)
		for i := 0; i < n; i++ {
			v.Nulls[i] = data[pos+i>>3]&(1<<(i&7)) != 0
		}
		pos += nb
	}
	return v, pos, nil
}

// AppendColumnsBinary serializes a list of equal-length vectors (one
// record's columns) onto buf.
func AppendColumnsBinary(buf []byte, cols []*Vector) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cols)))
	for _, v := range cols {
		buf = v.AppendBinary(buf)
	}
	return buf
}

// DecodeColumns decodes a column list serialized by AppendColumnsBinary,
// returning the vectors and bytes consumed.
func DecodeColumns(data []byte) ([]*Vector, int, error) {
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("vector: truncated column count")
	}
	nc := int(binary.LittleEndian.Uint32(data))
	if nc > 1<<16 {
		return nil, 0, fmt.Errorf("vector: implausible column count %d", nc)
	}
	pos := 4
	cols := make([]*Vector, nc)
	for i := 0; i < nc; i++ {
		v, n, err := DecodeVector(data[pos:])
		if err != nil {
			return nil, 0, err
		}
		cols[i] = v
		pos += n
	}
	return cols, pos, nil
}

// AppendValueBinary serializes one boxed value (used for SMA min/max in
// segment file headers).
func AppendValueBinary(buf []byte, val Value) []byte {
	buf = append(buf, byte(val.Typ))
	if val.Null {
		return append(buf, 1)
	}
	buf = append(buf, 0)
	switch val.Typ {
	case Int64, Date:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(val.I64))
	case Float64:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(val.F64))
	case String:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val.Str)))
		buf = append(buf, val.Str...)
	case Bool:
		if val.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// DecodeValue decodes one boxed value, returning it and the bytes consumed.
func DecodeValue(data []byte) (Value, int, error) {
	if len(data) < 2 {
		return Value{}, 0, fmt.Errorf("vector: truncated value")
	}
	val := Value{Typ: Type(data[0])}
	if val.Typ > Date {
		return Value{}, 0, fmt.Errorf("vector: unknown value type tag %d", data[0])
	}
	if data[1] == 1 {
		val.Null = true
		return val, 2, nil
	}
	pos := 2
	switch val.Typ {
	case Int64, Date:
		if len(data) < pos+8 {
			return Value{}, 0, fmt.Errorf("vector: truncated value payload")
		}
		val.I64 = int64(binary.LittleEndian.Uint64(data[pos:]))
		pos += 8
	case Float64:
		if len(data) < pos+8 {
			return Value{}, 0, fmt.Errorf("vector: truncated value payload")
		}
		val.F64 = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		pos += 8
	case String:
		if len(data) < pos+4 {
			return Value{}, 0, fmt.Errorf("vector: truncated value payload")
		}
		ln := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if ln > len(data)-pos {
			return Value{}, 0, fmt.Errorf("vector: truncated value payload")
		}
		val.Str = string(data[pos : pos+ln])
		pos += ln
	case Bool:
		if len(data) < pos+1 {
			return Value{}, 0, fmt.Errorf("vector: truncated value payload")
		}
		val.B = data[pos] == 1
		pos++
	}
	return val, pos, nil
}
