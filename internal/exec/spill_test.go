package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"patchindex/internal/vector"
)

// intBatches builds BatchSize-sized batches over the given rows of (key,
// payload) columns.
func intBatches(keys []int64, payload []string) ([]*vector.Batch, []vector.Type) {
	types := []vector.Type{vector.Int64, vector.String}
	var batches []*vector.Batch
	for lo := 0; lo < len(keys); lo += vector.BatchSize {
		hi := lo + vector.BatchSize
		if hi > len(keys) {
			hi = len(keys)
		}
		b := vector.NewBatch(types)
		for i := lo; i < hi; i++ {
			b.Vecs[0].AppendInt64(keys[i])
			b.Vecs[1].AppendString(payload[i])
		}
		batches = append(batches, b)
	}
	return batches, types
}

// collectRows drains op into "key|payload" strings.
func collectRows(t *testing.T, op Operator) []string {
	t.Helper()
	if err := op.Open(context.Background()); err != nil {
		t.Fatalf("open: %v", err)
	}
	var rows []string
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			var sb string
			for c, v := range b.Vecs {
				if c > 0 {
					sb += "|"
				}
				switch {
				case v.IsNull(i):
					sb += "NULL"
				case v.Typ == vector.String:
					sb += v.Str[i]
				default:
					sb += fmt.Sprint(v.I64[i])
				}
			}
			rows = append(rows, sb)
		}
	}
	if err := op.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return rows
}

// TestSortSpillMatchesInMemory sorts the same shuffled input with and
// without a spill limit small enough to force many runs; the outputs must be
// identical.
func TestSortSpillMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 10_000
	keys := make([]int64, n)
	payload := make([]string, n)
	for i := range keys {
		keys[i] = rng.Int63n(2000)
		payload[i] = fmt.Sprintf("p%06d", i)
	}
	run := func(limit int64) []string {
		batches, types := intBatches(keys, payload)
		s, err := NewSort(newMemOp(types, batches...), []SortKey{{Col: 0}, {Col: 1}})
		if err != nil {
			t.Fatal(err)
		}
		s.SetSpill(SpillConfig{Dir: t.TempDir(), Limit: limit})
		return collectRows(t, s)
	}
	want := run(0)        // in-memory
	got := run(16 * 1024) // ~16KiB runs: dozens of spilled runs
	if len(want) != n || len(got) != n {
		t.Fatalf("row counts: want-path %d, spill-path %d, n %d", len(want), len(got), n)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d differs: in-memory %q, spilled %q", i, want[i], got[i])
		}
	}
}

// TestSortSpillRangeDisjointRuns: input that arrives in ascending key
// blocks spills runs covering disjoint key ranges, so the run merger passes
// whole spilled chunks through instead of copying them. The spill readers
// reuse their frame buffers; the output must still match the in-memory sort
// row for row.
func TestSortSpillRangeDisjointRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 10_000
	keys := make([]int64, n)
	payload := make([]string, n)
	for i := range keys {
		keys[i] = int64(i)
		payload[i] = fmt.Sprintf("p%06d", i)
	}
	// Runs end on input batch boundaries, so shuffling within batch-sized
	// blocks keeps every run's key range apart from the others'.
	for lo := 0; lo < n; lo += vector.BatchSize {
		rng.Shuffle(min(vector.BatchSize, n-lo), func(i, j int) {
			keys[lo+i], keys[lo+j] = keys[lo+j], keys[lo+i]
			payload[lo+i], payload[lo+j] = payload[lo+j], payload[lo+i]
		})
	}
	batches, types := intBatches(keys, payload)
	want := collectRows(t, mustSort(t, newMemOp(types, batches...), SpillConfig{}))

	s := mustSort(t, newMemOp(types, batches...), SpillConfig{Dir: t.TempDir(), Limit: 16 * 1024})
	if err := s.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.spilledRuns < 2 {
		t.Fatalf("expected several spilled runs, got %d", s.spilledRuns)
	}
	var got []string
	passed := 0
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b != s.merge.out {
			passed++
		}
		for i := 0; i < b.Len(); i++ {
			got = append(got, fmt.Sprintf("%d|%s", b.Vecs[0].I64[i], b.Vecs[1].Str[i]))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("spilled sort returned %d rows, in-memory %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: spilled %q, in-memory %q", i, got[i], want[i])
		}
	}
	if passed == 0 || s.merge.wholeRuns == 0 {
		t.Errorf("no spilled chunk was passed through (%d passed, %d whole-batch runs)", passed, s.merge.wholeRuns)
	}
}

// mustSort builds a one-key ascending Sort over child with the given spill
// configuration.
func mustSort(t *testing.T, child Operator, spill SpillConfig) *Sort {
	t.Helper()
	s, err := NewSort(child, []SortKey{{Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSpill(spill)
	return s
}

// TestSortSpillStats checks the spill path actually engaged.
func TestSortSpillStats(t *testing.T) {
	keys := make([]int64, 5000)
	payload := make([]string, 5000)
	for i := range keys {
		keys[i] = int64(5000 - i)
		payload[i] = "x"
	}
	batches, types := intBatches(keys, payload)
	s, err := NewSort(newMemOp(types, batches...), []SortKey{{Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSpill(SpillConfig{Dir: t.TempDir(), Limit: 8 * 1024})
	rows := collectRows(t, s)
	if len(rows) != 5000 {
		t.Fatalf("got %d rows", len(rows))
	}
	if s.spilledRuns < 2 {
		t.Errorf("expected multiple spilled runs, got %d", s.spilledRuns)
	}
	if s.spilledBytes == 0 {
		t.Errorf("spilledBytes not accounted")
	}
}

// TestHashJoinGraceMatchesInMemory joins with and without a build-side spill
// limit; the output multisets must match (hash join output order is not
// specified, so both sides are sorted before comparing).
func TestHashJoinGraceMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nBuild, nProbe := 6000, 8000
	bk := make([]int64, nBuild)
	bp := make([]string, nBuild)
	for i := range bk {
		bk[i] = rng.Int63n(3000)
		bp[i] = fmt.Sprintf("b%05d", i)
	}
	pk := make([]int64, nProbe)
	pp := make([]string, nProbe)
	for i := range pk {
		pk[i] = rng.Int63n(3000)
		pp[i] = fmt.Sprintf("p%05d", i)
	}
	run := func(limit int64, outer bool) []string {
		bb, types := intBatches(bk, bp)
		pb, _ := intBatches(pk, pp)
		var j *HashJoin
		var err error
		if outer {
			j, err = NewLeftOuterHashJoin(newMemOp(types, pb...), newMemOp(types, bb...), 0, 0)
		} else {
			j, err = NewHashJoin(newMemOp(types, pb...), newMemOp(types, bb...), 0, 0, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		j.SetSpill(SpillConfig{Dir: t.TempDir(), Limit: limit})
		rows := collectRows(t, j)
		quicksort2(rows)
		return rows
	}
	for _, outer := range []bool{false, true} {
		want := run(0, outer)
		got := run(32*1024, outer)
		if len(want) != len(got) {
			t.Fatalf("outer=%v: row counts differ: %d vs %d", outer, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("outer=%v row %d: %q vs %q", outer, i, want[i], got[i])
			}
		}
		if len(want) == 0 {
			t.Fatalf("outer=%v: join produced no rows (bad test data)", outer)
		}
	}
}

// TestHashJoinGraceNullKeys: NULL keys never match, but a left outer join
// must still emit NULL-key left rows padded with NULLs — including through
// the Grace path.
func TestHashJoinGraceNullKeys(t *testing.T) {
	types := []vector.Type{vector.Int64, vector.String}
	mkBatch := func(withNull bool, base int) *vector.Batch {
		b := vector.NewBatch(types)
		for i := 0; i < 2000; i++ {
			if withNull && i%10 == 0 {
				b.Vecs[0].AppendNull()
			} else {
				b.Vecs[0].AppendInt64(int64(base + i))
			}
			b.Vecs[1].AppendString("r")
		}
		return b
	}
	left := newMemOp(types, mkBatch(true, 0), mkBatch(true, 2000))
	right := newMemOp(types, mkBatch(false, 0), mkBatch(false, 2000))
	j, err := NewLeftOuterHashJoin(left, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSpill(SpillConfig{Dir: t.TempDir(), Limit: 4 * 1024})
	rows := collectRows(t, j)
	if !j.grace {
		t.Fatalf("expected the Grace path to engage at a 4KiB limit")
	}
	// 4000 left rows: 400 NULL keys (unmatched, padded) + 3600 matched.
	if len(rows) != 4000 {
		t.Fatalf("got %d rows, want 4000", len(rows))
	}
	nulls := 0
	for _, r := range rows {
		if r == "NULL|r|NULL|NULL" {
			nulls++
		}
	}
	if nulls != 400 {
		t.Errorf("NULL-key padded rows = %d, want 400", nulls)
	}
}

// quicksort2 sorts strings (tiny helper; avoids importing sort just for
// tests' sake — reuses the operator quicksort).
func quicksort2(s []string) {
	idx := make([]int, len(s))
	for i := range idx {
		idx[i] = i
	}
	quicksort(idx, func(a, b int) bool { return s[a] < s[b] })
	out := make([]string, len(s))
	for i, j := range idx {
		out[i] = s[j]
	}
	copy(s, out)
}

// smallBatches returns 100 batches of 10 Int64 rows each, every one backed
// by a BatchSize-capacity vector: 8 000 bytes of keys in 800 KiB of
// capacity.
func smallBatches() ([]*vector.Batch, []vector.Type) {
	types := []vector.Type{vector.Int64}
	var batches []*vector.Batch
	for i := 0; i < 100; i++ {
		b := vector.NewBatch(types)
		for r := 0; r < 10; r++ {
			b.Vecs[0].AppendInt64(int64(1000 - 10*i - r))
		}
		batches = append(batches, b)
	}
	return batches, types
}

// TestSortSpillChargesRowsNotCapacity: the spill budget charges the rows a
// batch adds, not its vectors' capacity, so 8 000 bytes of keys stay in
// memory under a 64 KiB limit.
func TestSortSpillChargesRowsNotCapacity(t *testing.T) {
	batches, types := smallBatches()
	s := mustSort(t, newMemOp(types, batches...), SpillConfig{Dir: t.TempDir(), Limit: 64 << 10})
	rows := collectRows(t, s)
	if len(rows) != 1000 || rows[0] != "1" || rows[999] != "1000" {
		t.Fatalf("sorted %d rows, first %q last %q", len(rows), rows[0], rows[len(rows)-1])
	}
	if s.spilledRuns != 0 {
		t.Errorf("%d spilled runs for 8 000 bytes under a 64 KiB limit, want 0", s.spilledRuns)
	}
}

// TestHashJoinGraceChargesRowsNotCapacity: the hash build charges the rows
// it adds, so a small build side made of small batches never goes Grace.
func TestHashJoinGraceChargesRowsNotCapacity(t *testing.T) {
	build, types := smallBatches()
	probe, _ := smallBatches()
	j, err := NewHashJoin(newMemOp(types, probe...), newMemOp(types, build...), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSpill(SpillConfig{Dir: t.TempDir(), Limit: 64 << 10})
	if rows := collectRows(t, j); len(rows) != 1000 {
		t.Fatalf("joined %d rows, want 1000", len(rows))
	}
	if j.grace {
		t.Errorf("8 000 build bytes went Grace under a 64 KiB limit (%d bytes spilled)", j.spilledBytes)
	}
}
