package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// runPatchSelect scans vals with the given patch ids and mode and returns
// the surviving values.
func runPatchSelect(t *testing.T, vals []int64, ids []uint64, kind patch.Kind, mode SelectMode, ranges []storage.ScanRange) []int64 {
	t.Helper()
	tab := buildTable(t, "t", vals)
	set, err := patch.Build(kind, ids, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScan(tab, 0, []int{0}, ranges)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPatchSelect(sc, set, mode)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(ps)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].I64
	}
	return out
}

func TestPatchSelectExclude(t *testing.T) {
	vals := []int64{10, 11, 12, 13, 14, 15}
	for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
		got := runPatchSelect(t, vals, []uint64{1, 4}, kind, ExcludePatches, nil)
		want := []int64{10, 12, 13, 15}
		if !eqInts(got, want) {
			t.Errorf("%v exclude = %v, want %v", kind, got, want)
		}
	}
}

func TestPatchSelectUse(t *testing.T) {
	vals := []int64{10, 11, 12, 13, 14, 15}
	for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
		got := runPatchSelect(t, vals, []uint64{1, 4}, kind, UsePatches, nil)
		want := []int64{11, 14}
		if !eqInts(got, want) {
			t.Errorf("%v use = %v, want %v", kind, got, want)
		}
	}
}

func TestPatchSelectEmptyPatchSet(t *testing.T) {
	vals := []int64{1, 2, 3}
	for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
		if got := runPatchSelect(t, vals, nil, kind, ExcludePatches, nil); !eqInts(got, vals) {
			t.Errorf("%v exclude with empty set = %v", kind, got)
		}
		if got := runPatchSelect(t, vals, nil, kind, UsePatches, nil); len(got) != 0 {
			t.Errorf("%v use with empty set = %v", kind, got)
		}
	}
}

func TestPatchSelectAllPatches(t *testing.T) {
	vals := []int64{1, 2, 3}
	ids := []uint64{0, 1, 2}
	for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
		if got := runPatchSelect(t, vals, ids, kind, ExcludePatches, nil); len(got) != 0 {
			t.Errorf("%v exclude all = %v", kind, got)
		}
		if got := runPatchSelect(t, vals, ids, kind, UsePatches, nil); !eqInts(got, vals) {
			t.Errorf("%v use all = %v", kind, got)
		}
	}
}

// TestPatchSelectScanRanges: with pruned scan ranges the patch pointer must
// seek across the gaps (Section VI-A3).
func TestPatchSelectScanRanges(t *testing.T) {
	n := 3000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	ids := []uint64{5, 100, 1500, 1501, 2500, 2999}
	ranges := []storage.ScanRange{{Start: 0, End: 10}, {Start: 1400, End: 1600}, {Start: 2990, End: 3000}}
	inRange := func(row uint64) bool {
		for _, r := range ranges {
			if row >= r.Start && row < r.End {
				return true
			}
		}
		return false
	}
	for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
		isPatch := map[uint64]bool{}
		for _, id := range ids {
			isPatch[id] = true
		}
		var wantExcl, wantUse []int64
		for row := uint64(0); row < uint64(n); row++ {
			if !inRange(row) {
				continue
			}
			if isPatch[row] {
				wantUse = append(wantUse, vals[row])
			} else {
				wantExcl = append(wantExcl, vals[row])
			}
		}
		if got := runPatchSelect(t, vals, ids, kind, ExcludePatches, ranges); !eqInts(got, wantExcl) {
			t.Errorf("%v exclude+ranges: %d rows, want %d", kind, len(got), len(wantExcl))
		}
		if got := runPatchSelect(t, vals, ids, kind, UsePatches, ranges); !eqInts(got, wantUse) {
			t.Errorf("%v use+ranges = %v, want %v", kind, got, wantUse)
		}
	}
}

// patchSelectTable builds a one-partition table (v BIGINT, w VARCHAR) whose
// w is NULL where nulls is set.
func patchSelectTable(t testing.TB, vals []int64, strs []string, nulls []bool) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable("t", storage.NewSchema(
		storage.Column{Name: "v", Typ: vector.Int64},
		storage.Column{Name: "w", Typ: vector.String}), 1)
	if err != nil {
		t.Fatal(err)
	}
	v, w := vector.New(vector.Int64, len(vals)), vector.New(vector.String, len(vals))
	for i, x := range vals {
		v.AppendInt64(x)
		if nulls[i] {
			w.AppendNull()
		} else {
			w.AppendString(strs[i])
		}
	}
	if err := tab.AppendColumns(0, []*vector.Vector{v, w}); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestPatchSelectEquivalence: for random two-column data with NULLs, patch
// sets and scan ranges (starting off word boundaries), every mode and kind
// returns, value for value, what a naive in-range/patch filter returns, and
// reports the probe and hit counts the naive walk predicts.
func TestPatchSelectEquivalence(t *testing.T) {
	f := func(seed int64, nRaw uint16, density uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%4000 + 1
		vals, strs, nulls := make([]int64, n), make([]string, n), make([]bool, n)
		isPatch := make([]bool, n)
		var ids []uint64
		d := int(density)%10 + 1
		for i := range vals {
			vals[i] = rng.Int63n(1000)
			strs[i] = string(rune('a' + rng.Intn(26)))
			nulls[i] = rng.Intn(4) == 0
			if rng.Intn(d+1) == 0 {
				ids = append(ids, uint64(i))
				isPatch[i] = true
			}
		}
		var ranges []storage.ScanRange
		pos := uint64(0)
		for pos < uint64(n) {
			start := pos + uint64(rng.Intn(500))
			if start >= uint64(n) {
				break
			}
			if start%64 == 0 && start+1 < uint64(n) {
				start++
			}
			end := start + uint64(rng.Intn(800)) + 1
			if end > uint64(n) {
				end = uint64(n)
			}
			ranges = append(ranges, storage.ScanRange{Start: start, End: end})
			pos = end + uint64(rng.Intn(200))
		}
		if len(ranges) == 0 || rng.Intn(4) == 0 {
			ranges = nil
		}
		tab := patchSelectTable(t, vals, strs, nulls)

		// The naive reference: walk the scan's batches row by row.
		scan := func() Operator {
			sc, err := NewScan(tab, 0, []int{0, 1}, ranges)
			if err != nil {
				t.Fatal(err)
			}
			return sc
		}
		sc := scan()
		if err := sc.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		var want [2][][]vector.Value
		var wantProbes [2]int64
		var wantHits int64
		// Use mode pulls nothing at all when the set holds no patch.
		useDone := len(ids) == 0
		for {
			b, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if !useDone {
				wantProbes[UsePatches] += int64(b.Len())
			}
			wantProbes[ExcludePatches] += int64(b.Len())
			for i := 0; i < b.Len(); i++ {
				if row := b.BaseRow + uint64(i); isPatch[row] {
					want[UsePatches] = append(want[UsePatches], b.Row(i))
					wantHits++
				} else {
					want[ExcludePatches] = append(want[ExcludePatches], b.Row(i))
				}
			}
			// Use mode stops pulling once no patch lies at or after the
			// batch end.
			useDone = len(ids) == 0 || ids[len(ids)-1] < b.BaseRow+uint64(b.Len())
		}
		sc.Close()

		for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
			set, err := patch.Build(kind, ids, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []SelectMode{ExcludePatches, UsePatches} {
				ps, err := NewPatchSelect(scan(), set, mode)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := Collect(ps)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != len(want[mode]) || len(rows) > 0 && !reflect.DeepEqual(rows, want[mode]) {
					t.Logf("%v %v: %d rows, want %d", kind, mode, len(rows), len(want[mode]))
					return false
				}
				if ps.probes != wantProbes[mode] || ps.hits != wantHits {
					t.Logf("%v %v: probes/hits %d/%d, want %d/%d", kind, mode, ps.probes, ps.hits, wantProbes[mode], wantHits)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzPatchSelect compares PatchSelect with the per-row reference on
// contiguous batches cut from fuzzed scan ranges. Per input: the partition
// has 1+rows%5000 rows, each a patch with probability density/256 (drawn
// from seed); the bytes of spans are (gap, length) pairs of scan ranges;
// batches hold 1+batch%1024 rows; flags bit 0 picks the bitmap kind, bit 1
// use mode, bits 2-3 the NULL density of the string column (0, 10, 50 or
// 100 %).
func FuzzPatchSelect(f *testing.F) {
	f.Add(int64(1), uint16(3000), uint8(13), []byte{}, uint16(1023), uint8(0))
	f.Add(int64(2), uint16(3000), uint8(13), []byte{3, 40, 9, 200}, uint16(100), uint8(5))
	f.Add(int64(3), uint16(777), uint8(200), []byte{0, 255, 1, 1}, uint16(63), uint8(6))
	f.Add(int64(4), uint16(4096), uint8(1), []byte{8, 8, 8, 8, 8, 8}, uint16(64), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, rowsRaw uint16, density uint8, spans []byte, batch uint16, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rowsRaw%5000)
		nullPct := []int{0, 10, 50, 100}[flags>>2&3]
		types := []vector.Type{vector.Int64, vector.String}
		var ids []uint64
		for i := 0; i < n; i++ {
			if rng.Intn(256) < int(density) {
				ids = append(ids, uint64(i))
			}
		}
		kind, mode := patch.Identifier, ExcludePatches
		if flags&1 != 0 {
			kind = patch.Bitmap
		}
		if flags&2 != 0 {
			mode = UsePatches
		}
		set, err := patch.Build(kind, ids, n)
		if err != nil {
			t.Fatal(err)
		}
		var ranges []storage.ScanRange
		for i, pos := 0, uint64(0); i+1 < len(spans) && pos < uint64(n); i += 2 {
			start := pos + uint64(spans[i])*8
			end := min(start+uint64(spans[i+1])*16+1, uint64(n))
			if start >= end {
				break
			}
			ranges = append(ranges, storage.ScanRange{Start: start, End: end})
			pos = end
		}
		if len(spans) == 0 {
			ranges = []storage.ScanRange{{Start: 0, End: uint64(n)}}
		}
		size := 1 + int(batch%vector.BatchSize)
		var batches []*vector.Batch
		for _, r := range ranges {
			for lo := r.Start; lo < r.End; lo += uint64(size) {
				b := vector.NewBatch(types)
				for row := lo; row < min(lo+uint64(size), r.End); row++ {
					b.Vecs[0].AppendInt64(int64(row))
					if rng.Intn(100) < nullPct {
						b.Vecs[1].AppendNull()
					} else {
						b.Vecs[1].AppendString(string(rune('a' + row%26)))
					}
				}
				batches = append(batches, contiguous(b, lo))
			}
		}

		want, wantProbes, wantHits, err := runRefPatchSelect(newMemOp(types, batches...), set, mode)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := NewPatchSelect(newMemOp(types, batches...), set, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(ps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%v %v: %d rows, reference %d (rows differ)", kind, mode, len(got), len(want))
		}
		if ps.probes != wantProbes || ps.hits != wantHits {
			t.Fatalf("%v %v: probes/hits %d/%d, reference %d/%d", kind, mode, ps.probes, ps.hits, wantProbes, wantHits)
		}
	})
}

// BenchmarkPatchSelect reports PatchSelect's cost per input row over 256 k
// rows in contiguous 1024-row batches, for both kinds and modes, three patch
// rates and one or three columns.
func BenchmarkPatchSelect(b *testing.B) {
	const rows = 1 << 18
	for _, ncols := range []int{1, 3} {
		types := []vector.Type{vector.Int64, vector.Float64, vector.String}[:ncols]
		var batches []*vector.Batch
		for lo := 0; lo < rows; lo += vector.BatchSize {
			bt := vector.NewBatch(types)
			for row := lo; row < lo+vector.BatchSize; row++ {
				bt.Vecs[0].AppendInt64(int64(row))
				if ncols > 1 {
					bt.Vecs[1].AppendFloat64(float64(row))
					bt.Vecs[2].AppendString("x")
				}
			}
			batches = append(batches, contiguous(bt, uint64(lo)))
		}
		for _, pct := range []float64{0.5, 5, 50} {
			rng := rand.New(rand.NewSource(1))
			var ids []uint64
			for i := 0; i < rows; i++ {
				if rng.Float64()*100 < pct {
					ids = append(ids, uint64(i))
				}
			}
			for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
				set, err := patch.Build(kind, ids, rows)
				if err != nil {
					b.Fatal(err)
				}
				for _, mode := range []SelectMode{ExcludePatches, UsePatches} {
					name := fmt.Sprintf("%v/%v/%gpct/%dcol", kind, mode, pct, ncols)
					b.Run(name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							ps, err := NewPatchSelect(newMemOp(types, batches...), set, mode)
							if err != nil {
								b.Fatal(err)
							}
							if _, err := Drain(ps); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
					})
				}
			}
		}
	}
}

func TestPatchSelectRejectsNonContiguous(t *testing.T) {
	b := intBatch(1, 2, 3) // not marked contiguous
	src := newMemOp([]vector.Type{vector.Int64}, b)
	set, _ := patch.Build(patch.Identifier, nil, 3)
	ps, err := NewPatchSelect(src, set, ExcludePatches)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if _, err := ps.Next(); err == nil {
		t.Error("non-contiguous input must be rejected")
	}
}

func TestPatchSelectRejectsBackwardsBatches(t *testing.T) {
	b1 := contiguous(intBatch(1, 2), 100)
	b2 := contiguous(intBatch(3, 4), 0) // moves backwards
	src := newMemOp([]vector.Type{vector.Int64}, b1, b2)
	set, _ := patch.Build(patch.Identifier, nil, 200)
	ps, _ := NewPatchSelect(src, set, ExcludePatches)
	if err := ps.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if _, err := ps.Next(); err != nil {
		t.Fatalf("first batch should pass: %v", err)
	}
	if _, err := ps.Next(); err == nil {
		t.Error("backwards batch must be rejected")
	}
}

func TestPatchSelectNilSet(t *testing.T) {
	src := newMemOp([]vector.Type{vector.Int64})
	if _, err := NewPatchSelect(src, nil, UsePatches); err == nil {
		t.Error("nil set must be rejected")
	}
}

func TestPatchSelectUseEarlyOut(t *testing.T) {
	// In use_patches mode the operator must stop pulling once all patches
	// are consumed ("we return NULL in the case that all patches are
	// already processed").
	var batches []*vector.Batch
	for i := 0; i < 10; i++ {
		batches = append(batches, contiguous(intBatch(int64(i*2), int64(i*2+1)), uint64(i*2)))
	}
	src := newMemOp([]vector.Type{vector.Int64}, batches...)
	set, _ := patch.Build(patch.Identifier, []uint64{1}, 20)
	ps, _ := NewPatchSelect(src, set, UsePatches)
	rows, err := Collect(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].I64 != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if src.pos > 2 {
		t.Errorf("source pulled %d batches after patches were exhausted", src.pos)
	}
}

func TestSelectModeString(t *testing.T) {
	if ExcludePatches.String() != "exclude_patches" || UsePatches.String() != "use_patches" {
		t.Error("mode names wrong")
	}
}
