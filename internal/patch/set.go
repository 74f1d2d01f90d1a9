// Package patch implements the PatchIndex data structure of the paper: a
// per-column set of patches P_c holding the row ids of tuples that violate an
// approximate constraint (nearly-unique or nearly-sorted column). Two
// physical representations are provided, exactly as in Section V of the
// paper:
//
//   - the identifier-based approach stores the 64-bit row ids of all patch
//     tuples in a sorted array (sparse; 64 bit per patch), and
//   - the bitmap-based approach stores one bit per table row (dense;
//     independent of |P_c|).
//
// The expected memory crossover is |P_c|/|R| = 1/64 ≈ 1.56 %, which Choose
// implements. Sets are immutable after Build and are safe for concurrent
// readers.
package patch

import (
	"fmt"
	"math/bits"
	"sort"
)

// Kind selects the physical representation of a patch set.
type Kind uint8

const (
	// Identifier stores sorted 64-bit row ids (sparse).
	Identifier Kind = iota
	// Bitmap stores one bit per row of the indexed partition (dense).
	Bitmap
	// Auto picks Identifier below the 1/64 crossover, Bitmap above.
	Auto
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Identifier:
		return "identifier"
	case Bitmap:
		return "bitmap"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// CrossoverRate is the exception rate at which the bitmap representation
// becomes smaller than the identifier representation: 1 bit vs 64 bit per
// element means identifiers win while |P_c|/|R| <= 1/64 ≈ 1.56 % (Section V).
const CrossoverRate = 1.0 / 64.0

// Choose resolves Auto into a concrete representation for a partition with
// numRows rows and numPatches patches.
func Choose(numPatches, numRows int) Kind {
	if numRows == 0 {
		return Identifier
	}
	if float64(numPatches)/float64(numRows) <= CrossoverRate {
		return Identifier
	}
	return Bitmap
}

// Set is an immutable set of patch row ids for one partition of a column.
// Row ids are partition-local. Iteration order is ascending, which the
// PatchSelect merge strategy (Algorithm 1) relies on.
type Set interface {
	// Kind reports the physical representation.
	Kind() Kind
	// Contains reports whether row is a patch.
	Contains(row uint64) bool
	// Cardinality returns |P_c| for this partition.
	Cardinality() int
	// NumRows returns the number of rows of the partition the set covers.
	NumRows() int
	// MemoryBytes returns the memory footprint of the patch payload.
	MemoryBytes() int
	// Iter returns an iterator positioned at the first patch >= start.
	Iter(start uint64) *Iter
}

// Iter walks a patch set in ascending row-id order. It is the "patch
// pointer" of Algorithm 1.
type Iter struct {
	ids  []uint64 // identifier-based
	pos  int
	bm   *BitmapSet // bitmap-based
	next uint64
	done bool
}

// Valid reports whether the iterator currently points at a patch.
func (it *Iter) Valid() bool { return !it.done }

// Row returns the row id the iterator points at. Only valid if Valid().
func (it *Iter) Row() uint64 {
	if it.ids != nil {
		return it.ids[it.pos]
	}
	return it.next
}

// Next advances to the next patch.
func (it *Iter) Next() {
	if it.done {
		return
	}
	if it.ids != nil {
		it.pos++
		if it.pos >= len(it.ids) {
			it.done = true
		}
		return
	}
	r, ok := it.bm.nextSet(it.next + 1)
	if !ok {
		it.done = true
		return
	}
	it.next = r
}

// Seek advances the iterator to the first patch >= row. It never moves
// backwards. This implements the paper's scan-range support: "adjusting the
// patch pointer in order to skip patches outside the ranges".
func (it *Iter) Seek(row uint64) {
	if it.done {
		return
	}
	if it.ids != nil {
		if it.pos < len(it.ids) && it.ids[it.pos] >= row {
			return
		}
		// Binary search in the remaining suffix.
		rest := it.ids[it.pos:]
		off := sort.Search(len(rest), func(i int) bool { return rest[i] >= row })
		it.pos += off
		if it.pos >= len(it.ids) {
			it.done = true
		}
		return
	}
	if it.next >= row {
		return
	}
	r, ok := it.bm.nextSet(row)
	if !ok {
		it.done = true
		return
	}
	it.next = r
}

// AppendBatch appends to dst the offsets, relative to base, of every patch
// in [base, base+n) and returns the extended slice. It first seeks to base
// and leaves the iterator on the first patch >= base+n, so it moves forward
// only and ends where a Seek/Valid/Row/Next walk over the batch ends. It is
// one call per scan batch, with one tight loop over the id array or over
// the bitmap words the batch covers.
func (it *Iter) AppendBatch(dst []int, base uint64, n int) []int {
	it.Seek(base)
	end := base + uint64(n)
	if it.done || it.Row() >= end {
		return dst
	}
	if it.ids != nil {
		ids, pos := it.ids, it.pos
		for ; pos < len(ids) && ids[pos] < end; pos++ {
			dst = append(dst, int(ids[pos]-base))
		}
		it.pos, it.done = pos, pos >= len(ids)
		return dst
	}
	words := it.bm.words
	lastW, endMask := int((end-1)>>6), ^uint64(0)
	if end&63 != 0 {
		endMask = 1<<(end&63) - 1
	}
	if lastW >= len(words) {
		// The batch reaches past the rows the set was built for (rows
		// appended since); no patch lies there.
		lastW, endMask = len(words)-1, ^uint64(0)
	}
	w := int(it.next >> 6)
	word := words[w] &^ (1<<(it.next&63) - 1)
	for {
		if w == lastW {
			word &= endMask
		}
		for word != 0 {
			dst = append(dst, int(uint64(w)<<6+uint64(bits.TrailingZeros64(word))-base))
			word &= word - 1
		}
		if w++; w > lastW {
			break
		}
		word = words[w]
	}
	r, ok := it.bm.nextSet(end)
	it.next, it.done = r, !ok
	return dst
}

// IdentifierSet is the identifier-based (sparse) representation: a sorted
// array of 64-bit row ids.
type IdentifierSet struct {
	ids     []uint64
	numRows int
}

var _ Set = (*IdentifierSet)(nil)

// NewIdentifierSet builds an identifier set from sorted, unique row ids
// covering a partition of numRows rows. It returns an error if ids are out
// of order, duplicated or out of range.
func NewIdentifierSet(ids []uint64, numRows int) (*IdentifierSet, error) {
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			return nil, fmt.Errorf("patch: identifier set: ids not strictly ascending at %d (%d >= %d)", i, ids[i-1], id)
		}
		if id >= uint64(numRows) {
			return nil, fmt.Errorf("patch: identifier set: id %d out of range (numRows=%d)", id, numRows)
		}
	}
	return &IdentifierSet{ids: ids, numRows: numRows}, nil
}

// Kind returns Identifier.
func (s *IdentifierSet) Kind() Kind { return Identifier }

// Contains reports membership via binary search.
func (s *IdentifierSet) Contains(row uint64) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= row })
	return i < len(s.ids) && s.ids[i] == row
}

// Cardinality returns the number of patches.
func (s *IdentifierSet) Cardinality() int { return len(s.ids) }

// NumRows returns the covered partition size.
func (s *IdentifierSet) NumRows() int { return s.numRows }

// MemoryBytes returns 8 bytes per stored identifier.
func (s *IdentifierSet) MemoryBytes() int { return 8 * len(s.ids) }

// Iter returns an iterator starting at the first patch >= start.
func (s *IdentifierSet) Iter(start uint64) *Iter {
	pos := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= start })
	return &Iter{ids: s.ids, pos: pos, done: pos >= len(s.ids)}
}

// IDs exposes the sorted id array (shared; callers must not mutate).
func (s *IdentifierSet) IDs() []uint64 { return s.ids }

// BitmapSet is the bitmap-based (dense) representation: one bit per row.
type BitmapSet struct {
	words   []uint64
	numRows int
	card    int
}

var _ Set = (*BitmapSet)(nil)

// NewBitmapSet builds a bitmap set from sorted unique row ids.
func NewBitmapSet(ids []uint64, numRows int) (*BitmapSet, error) {
	s := &BitmapSet{words: make([]uint64, (numRows+63)/64), numRows: numRows}
	var prev uint64
	for i, id := range ids {
		if i > 0 && prev >= id {
			return nil, fmt.Errorf("patch: bitmap set: ids not strictly ascending at %d", i)
		}
		if id >= uint64(numRows) {
			return nil, fmt.Errorf("patch: bitmap set: id %d out of range (numRows=%d)", id, numRows)
		}
		s.words[id>>6] |= 1 << (id & 63)
		prev = id
	}
	s.card = len(ids)
	return s, nil
}

// Kind returns Bitmap.
func (s *BitmapSet) Kind() Kind { return Bitmap }

// Contains tests the bit for row.
func (s *BitmapSet) Contains(row uint64) bool {
	if row >= uint64(s.numRows) {
		return false
	}
	return s.words[row>>6]&(1<<(row&63)) != 0
}

// Cardinality returns the number of set bits.
func (s *BitmapSet) Cardinality() int { return s.card }

// NumRows returns the covered partition size.
func (s *BitmapSet) NumRows() int { return s.numRows }

// MemoryBytes returns the bitmap payload size: one bit per row, rounded up
// to whole words.
func (s *BitmapSet) MemoryBytes() int { return 8 * len(s.words) }

// Iter returns an iterator starting at the first set bit >= start.
func (s *BitmapSet) Iter(start uint64) *Iter {
	r, ok := s.nextSet(start)
	return &Iter{bm: s, next: r, done: !ok}
}

// nextSet finds the first set bit at position >= from.
func (s *BitmapSet) nextSet(from uint64) (uint64, bool) {
	if from >= uint64(s.numRows) {
		return 0, false
	}
	w := from >> 6
	word := s.words[w] >> (from & 63)
	if word != 0 {
		return from + uint64(bits.TrailingZeros64(word)), true
	}
	for w++; int(w) < len(s.words); w++ {
		if s.words[w] != 0 {
			return w<<6 + uint64(bits.TrailingZeros64(s.words[w])), true
		}
	}
	return 0, false
}

// Build constructs a Set of the requested kind from sorted unique partition
// local row ids. Kind Auto applies the 1/64 crossover rule.
func Build(kind Kind, ids []uint64, numRows int) (Set, error) {
	k := kind
	if k == Auto {
		k = Choose(len(ids), numRows)
	}
	switch k {
	case Identifier:
		return NewIdentifierSet(ids, numRows)
	case Bitmap:
		return NewBitmapSet(ids, numRows)
	default:
		return nil, fmt.Errorf("patch: unknown set kind %v", kind)
	}
}
