package discovery

import (
	"encoding/binary"
	"sort"

	"patchindex/internal/vector"
)

// The discovery code as it stood before the typed kernels, kept as the
// oracle the differential tests compare against: NUC counts every value
// through appendKey in a string-keyed map and probes it again per row, NSC
// runs the longest-sorted-subsequence search through Vector.Compare.

// appendKey appends an equality key for non-NULL row i of col to buf: the
// value's bytes, with -0.0 and +0.0 encoded alike.
func appendKey(buf []byte, col *vector.Vector, i int) []byte {
	switch col.Typ {
	case vector.Int64, vector.Date:
		return binary.LittleEndian.AppendUint64(buf, uint64(col.I64[i]))
	case vector.Float64:
		return binary.LittleEndian.AppendUint64(buf, vector.Float64KeyBits(col.F64[i]))
	case vector.String:
		return append(buf, col.Str[i]...)
	case vector.Bool:
		if col.B[i] {
			return append(buf, 1)
		}
		return append(buf, 0)
	}
	return buf
}

// refNUC is the count-then-probe NUC discovery over the partitions cols of
// one relation.
func refNUC(cols []*vector.Vector) [][]uint64 {
	counts := make(map[string]int)
	var buf []byte
	for _, col := range cols {
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				continue
			}
			buf = appendKey(buf[:0], col, i)
			counts[string(buf)]++
		}
	}
	out := make([][]uint64, len(cols))
	for c, col := range cols {
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				out[c] = append(out[c], uint64(i))
				continue
			}
			buf = appendKey(buf[:0], col, i)
			if counts[string(buf)] > 1 {
				out[c] = append(out[c], uint64(i))
			}
		}
	}
	return out
}

// refNSC is the Compare-based NSC discovery of one partition.
func refNSC(col *vector.Vector, descending bool) []uint64 {
	n := col.Len()
	tails := make([]int, 0, 64)
	prev := make([]int32, n)
	for i := range prev {
		prev[i] = -1
	}
	cmp := func(a, b int) int {
		c := col.Compare(a, col, b)
		if descending {
			return -c
		}
		return c
	}
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			continue
		}
		lo := sort.Search(len(tails), func(k int) bool { return cmp(tails[k], i) > 0 })
		if lo > 0 {
			prev[i] = int32(tails[lo-1])
		}
		if lo == len(tails) {
			tails = append(tails, i)
		} else {
			tails[lo] = i
		}
	}
	inLSS := make([]bool, n)
	if len(tails) > 0 {
		for at := int32(tails[len(tails)-1]); at >= 0; at = prev[at] {
			inLSS[at] = true
		}
	}
	var patches []uint64
	for i := 0; i < n; i++ {
		if !inLSS[i] {
			patches = append(patches, uint64(i))
		}
	}
	return patches
}
