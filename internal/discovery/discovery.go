// Package discovery implements the approximate-constraint discovery methods
// of Section IV: nearly unique columns (NUC) via a duplicate-detecting
// aggregation, and nearly sorted columns (NSC) via the longest sorted
// subsequence algorithm. Both return the minimal set of patches P_c in
// ascending row-id order, ready to be appended to a PatchIndex. NULL values
// are always assigned to the set of patches.
package discovery

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"patchindex/internal/morsel"
	"patchindex/internal/vector"
)

// Result is the outcome of discovering one constraint on one partition.
type Result struct {
	// Patches holds the partition-local row ids of P_c, ascending.
	Patches []uint64
	// NumRows is the number of rows examined.
	NumRows int
}

// ExceptionRate returns |P_c|/|R| for the partition.
func (r Result) ExceptionRate() float64 {
	if r.NumRows == 0 {
		return 0
	}
	return float64(len(r.Patches)) / float64(r.NumRows)
}

// Qualifies reports whether the column satisfies the constraint under the
// given threshold (condition NUC3 / NSC2).
func (r Result) Qualifies(threshold float64) bool {
	return r.ExceptionRate() <= threshold
}

// DiscoverNUC computes the minimal set of patches that makes column values
// unique (Definition III.4). The set consists of *all occurrences* of every
// duplicated value — required by condition (NUC2), which demands that the
// values of R_P and R_{\P} do not intersect — plus all NULL rows. This is
// the hash-based equivalent of the paper's SQL discovery query (group by
// with count(*) > 1, outer-joined back to the table).
func DiscoverNUC(col *vector.Vector) (Result, error) {
	patches, err := nucPatches([]*vector.Vector{col}, 1)
	if err != nil {
		return Result{}, err
	}
	return Result{Patches: patches[0], NumRows: col.Len()}, nil
}

// ErrTooManyRows refuses NUC discovery over a relation of more than
// math.MaxInt32 rows: its tables number rows and values in 31 bits.
var ErrTooManyRows = errors.New("discovery: NUC discovery takes at most 2^31-1 rows")

// nucPatches treats cols as the partitions of one relation and returns, per
// column, the ascending row ids of the minimal NUC patch set: every NULL row
// and every row whose value occurs more than once anywhere in cols. It is
// the one duplicate-detection pass behind DiscoverNUC, BuildIndex, Advise
// and VerifyNUC. A relation of more than math.MaxInt32 rows is refused with
// ErrTooManyRows.
//
// A value is never counted: the first row holding it is remembered, and a
// later row holding it marks both itself and that first row, so one pass
// over the data leaves a flag per row and the extraction that follows is a
// read-only scan of the flags, fanned out per column.
func nucPatches(cols []*vector.Vector, workers int) ([][]uint64, error) {
	base := make([]int, len(cols)+1) // base[c] numbers column c's first row
	for c, col := range cols {
		base[c+1] = base[c] + col.Len()
	}
	if base[len(cols)] > math.MaxInt32 {
		return nil, ErrTooManyRows
	}
	if t := cols[0].Typ; t != vector.Int64 && t != vector.Date {
		workers = 1 // only integer keys are sharded (vector.ShardOfInt64)
	}
	dup := make([]bool, base[len(cols)])
	if err := markDuplicates(cols, base, dup, workers); err != nil {
		return nil, err
	}
	out := make([][]uint64, len(cols))
	err := morsel.ForEach(context.TODO(), len(cols), workers, func(_, c int) error {
		col := cols[c]
		var patches []uint64
		for i, isDup := range dup[base[c]:base[c+1]] {
			if isDup || col.IsNull(i) {
				patches = append(patches, uint64(i))
			}
		}
		out[c] = patches
		return nil
	})
	return out, err
}

// markDuplicates sets dup[r] for every row r (numbered through base) whose
// non-NULL value occurs more than once in cols. Each of the workers owns one
// shard of the Int64/Date key space (one worker owns every key, of any
// type) and a vector.KeyTable of its own: it reads every row, skips the keys
// of other shards, and is the only writer of the flags of the rows whose
// keys it owns, so the workers share no mutable state and nothing is merged
// afterwards.
func markDuplicates(cols []*vector.Vector, base []int, dup []bool, workers int) error {
	capacity := len(dup)
	if workers > 1 {
		// An eighth of slack over an even split absorbs shard imbalance;
		// a table that still fills up grows.
		capacity = (capacity/workers + 1) * 9 / 8
	}
	types := []vector.Type{cols[0].Typ}
	return morsel.ForEach(context.TODO(), workers, workers, func(_, shard int) error {
		table := vector.NewKeyTable(types, capacity)
		first := make([]uint32, 0, capacity) // first[id]: first row holding the key
		// A chunk's keys: a view of the column when every row is taken,
		// else the taken rows gathered into packed.
		keys := []*vector.Vector{nil}
		view, packed := &vector.Vector{}, vector.New(types[0], vector.BatchSize)
		rows := make([]int, 0, vector.BatchSize)
		var ids [vector.BatchSize]int32
		for c, col := range cols {
			for lo := 0; lo < col.Len(); lo += vector.BatchSize {
				hi := min(lo+vector.BatchSize, col.Len())
				rows = rows[:0]
				for i := lo; i < hi; i++ {
					if !col.IsNull(i) && (workers == 1 || vector.ShardOfInt64(col.I64[i], workers) == shard) {
						rows = append(rows, i)
					}
				}
				if len(rows) == hi-lo {
					col.SliceInto(view, lo, hi)
					keys[0] = view
				} else {
					packed.Reset()
					packed.Gather(col, rows)
					keys[0] = packed
				}
				next := int32(table.Len())
				table.InsertBatch(keys, len(rows), ids[:len(rows)])
				for j, id := range ids[:len(rows)] {
					row := uint32(base[c] + rows[j])
					if id == next { // a new key: ids are handed out in order
						first = append(first, row)
						next++
					} else {
						dup[first[id]], dup[row] = true, true
					}
				}
			}
		}
		return nil
	})
}

// DiscoverNSC computes a minimal set of patches whose exclusion leaves the
// column sorted under the order relation (Definition III.5): non-decreasing
// when descending is false, non-increasing otherwise. It runs the longest
// sorted subsequence algorithm (Fredman 1975), O(n log n) overall. The
// returned patches are the inverted subsequence (rows *not* in the longest
// sorted subsequence) plus all NULL rows.
func DiscoverNSC(col *vector.Vector, descending bool) Result {
	n := col.Len()
	prev := make([]int32, n)
	length, at := longestSorted(col, descending, prev)
	// Walk the subsequence backwards from its last row; every row the walk
	// steps over is a patch, filled in from the back to come out ascending.
	patches := make([]uint64, n-length)
	k := len(patches)
	for i := n - 1; i >= 0; i-- {
		if int32(i) == at {
			at = prev[i]
			continue
		}
		k--
		patches[k] = uint64(i)
	}
	return Result{Patches: patches, NumRows: n}
}

// LongestSortedSubsequenceLength returns only the length of the longest
// non-decreasing (or non-increasing) subsequence, skipping NULLs. Exposed
// for advisory estimation without materializing patches.
func LongestSortedSubsequenceLength(col *vector.Vector, descending bool) int {
	length, _ := longestSorted(col, descending, nil)
	return length
}

// longestSorted finds one longest sorted subsequence of col's non-NULL rows
// and returns its length and last row (-1 if there is none). When prev is
// non-nil it must hold a slot per row; each row of the subsequence then
// links to the row before it (-1 at the start), so the caller can walk it.
//
// Row i extends the best subsequence whose tail is the last one not after
// col[i] in the order; using "first tail strictly after" (not "at or
// after") keeps duplicates inside the subsequence, matching the non-strict
// order relation.
func longestSorted(col *vector.Vector, descending bool, prev []int32) (length int, last int32) {
	if col.Typ == vector.Int64 || col.Typ == vector.Date {
		return longestSortedInt64(col.I64[:col.Len()], col.Nulls, descending, prev)
	}
	// tails[k] = last row of the smallest-tail sorted subsequence of length k+1.
	tails := make([]int32, 0, 64)
	for i, n := 0, col.Len(); i < n; i++ {
		if col.IsNull(i) {
			continue
		}
		lo := sort.Search(len(tails), func(k int) bool {
			c := col.Compare(int(tails[k]), col, i)
			if descending {
				c = -c
			}
			return c > 0
		})
		if prev != nil {
			prev[i] = -1
			if lo > 0 {
				prev[i] = tails[lo-1]
			}
		}
		if lo == len(tails) {
			tails = append(tails, int32(i))
		} else {
			tails[lo] = int32(i)
		}
	}
	last = -1
	if len(tails) > 0 {
		last = tails[len(tails)-1]
	}
	return len(tails), last
}

// longestSortedInt64 is longestSorted over raw int64 values: the tail values
// sit in a flat slice beside the tail rows, so a value at or after the last
// tail — nearly every row of a nearly sorted column — is appended without a
// search, and the rest binary-search integers instead of calling a
// comparator. Descending order is ascending order of the complemented
// values (^v reverses int64 order without overflow).
func longestSortedInt64(vals []int64, nulls []bool, descending bool, prev []int32) (length int, last int32) {
	var flip int64
	if descending {
		flip = -1
	}
	// Sized for the sorted column, where every row becomes a tail: growing
	// by append would copy the tails over and over on exactly the columns
	// discovery is meant for.
	tailVal := make([]int64, 0, len(vals))
	var tailRow []int32 // kept only when the caller wants links
	if prev != nil {
		tailRow = make([]int32, 0, len(vals))
	}
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			continue
		}
		key := v ^ flip
		k := len(tailVal)
		if k == 0 || key >= tailVal[k-1] {
			tailVal = append(tailVal, key)
		} else {
			// First tail strictly greater than key; tailVal[k-1] is one.
			lo, hi := 0, k-1
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if tailVal[mid] > key {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			k = lo
			tailVal[k] = key
		}
		if prev == nil {
			continue
		}
		prev[i] = -1
		if k > 0 {
			prev[i] = tailRow[k-1]
		}
		if k == len(tailRow) {
			tailRow = append(tailRow, int32(i))
		} else {
			tailRow[k] = int32(i)
		}
	}
	last = -1
	if len(tailRow) > 0 {
		last = tailRow[len(tailRow)-1]
	}
	return len(tailVal), last
}

// VerifyNUC checks conditions (NUC1) and (NUC2) for a proposed patch set:
// the non-patch values must be unique and must not intersect the patch
// values. Both hold exactly when every NULL row and every row whose value
// occurs more than once is a patch, which is what is checked. patches must
// be strictly ascending row ids of col. No engine path calls the verifiers
// yet; they are the oracle of the test suites.
func VerifyNUC(col *vector.Vector, patches []uint64) error {
	if err := checkPatchList(patches, col.Len()); err != nil {
		return err
	}
	dups, err := nucPatches([]*vector.Vector{col}, 1)
	if err != nil {
		return err
	}
	next := 0
	for _, r := range dups[0] {
		for next < len(patches) && patches[next] < r {
			next++
		}
		if next < len(patches) && patches[next] == r {
			continue
		}
		if col.IsNull(int(r)) {
			return fmt.Errorf("discovery: NULL at row %d is not a patch", r)
		}
		return fmt.Errorf("discovery: NUC1/NUC2 violated: the value at row %d occurs more than once but the row is not a patch", r)
	}
	return nil
}

// VerifyNSC checks condition (NSC1) for a proposed patch set: the non-patch
// values must be sorted in row-id order under the order relation. patches
// must be strictly ascending row ids of col.
func VerifyNSC(col *vector.Vector, patches []uint64, descending bool) error {
	n := col.Len()
	if err := checkPatchList(patches, n); err != nil {
		return err
	}
	next, last := 0, -1
	for i := 0; i < n; i++ {
		if next < len(patches) && patches[next] == uint64(i) {
			next++
			continue
		}
		if col.IsNull(i) {
			return fmt.Errorf("discovery: NULL at row %d is not a patch", i)
		}
		if last >= 0 {
			c := col.Compare(last, col, i)
			if descending {
				c = -c
			}
			if c > 0 {
				return fmt.Errorf("discovery: NSC1 violated between rows %d and %d", last, i)
			}
		}
		last = i
	}
	return nil
}

// checkPatchList rejects a patch list that is not strictly ascending or that
// names a row outside [0, numRows).
func checkPatchList(patches []uint64, numRows int) error {
	for k, p := range patches {
		if p >= uint64(numRows) {
			return fmt.Errorf("discovery: patch %d is outside the column's %d rows", p, numRows)
		}
		if k > 0 && p <= patches[k-1] {
			return fmt.Errorf("discovery: patch list is not strictly ascending at position %d (%d after %d)", k, p, patches[k-1])
		}
	}
	return nil
}
