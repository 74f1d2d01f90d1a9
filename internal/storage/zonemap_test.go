package storage

import (
	"math"
	"testing"

	"patchindex/internal/vector"
)

func numTable(t *testing.T, parts int) *Table {
	t.Helper()
	tab, err := NewTable("t", NewSchema(
		Column{Name: "a", Typ: vector.Int64},
		Column{Name: "b", Typ: vector.Float64},
	), parts)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestZoneMapMaintainedOnAppend(t *testing.T) {
	tab := numTable(t, 2)
	// Empty partition: invalid entry, nothing prunable.
	z := tab.ZoneMap(0, 0)
	if z.Valid || z.Rows != 0 {
		t.Fatalf("empty partition zone = %+v", z)
	}
	if tab.ZonePrunes(0, 0, vector.IntValue(0), vector.IntValue(10)) {
		t.Error("empty partition must not prune (plan shape is preserved elsewhere)")
	}

	for _, x := range []int64{5, -3, 17} {
		appendRow(t, tab, 0, vector.IntValue(x), vector.FloatValue(float64(x)))
	}
	appendRow(t, tab, 0, vector.NullValue(vector.Int64), vector.FloatValue(1))
	z = tab.ZoneMap(0, 0)
	if !z.Valid || z.Min.I64 != -3 || z.Max.I64 != 17 || !z.HasNull || z.Rows != 4 {
		t.Fatalf("zone after appends = %+v", z)
	}
	// Partition 1 untouched by partition 0's appends.
	if tab.ZoneMap(1, 0).Valid {
		t.Error("partition 1 zone must still be empty")
	}

	// [lo,hi] disjoint from [-3,17] prunes; overlapping does not.
	if !tab.ZonePrunes(0, 0, vector.IntValue(18), vector.NullValue(vector.Int64)) {
		t.Error("lo above max must prune")
	}
	if !tab.ZonePrunes(0, 0, vector.NullValue(vector.Int64), vector.IntValue(-4)) {
		t.Error("hi below min must prune")
	}
	if tab.ZonePrunes(0, 0, vector.IntValue(17), vector.NullValue(vector.Int64)) {
		t.Error("inclusive bound touching max must not prune")
	}
	if tab.ZonePrunes(0, 0, vector.NullValue(vector.Int64), vector.NullValue(vector.Int64)) {
		t.Error("unbounded interval must not prune")
	}
}

func TestZoneMapAllNullColumn(t *testing.T) {
	tab := numTable(t, 1)
	for i := 0; i < 3; i++ {
		appendRow(t, tab, 0, vector.NullValue(vector.Int64), vector.FloatValue(0))
	}
	z := tab.ZoneMap(0, 0)
	if z.Valid || !z.HasNull || z.Rows != 3 {
		t.Fatalf("all-NULL zone = %+v", z)
	}
	// A range predicate cannot match NULLs, so the partition prunes even
	// though it has rows.
	if !tab.ZonePrunes(0, 0, vector.IntValue(0), vector.IntValue(100)) {
		t.Error("all-NULL column must prune any bounded predicate")
	}
}

// TestZoneMapAllAppendPaths: every write reaches storage through
// AppendColumns, but in different chunkings — one row per INSERT row, whole
// vectors from Append, split chunks from COPY and WAL replay. Each chunking
// must maintain the same zone map, NULLs included; recovery reloads data
// through these chunkings, so this is what makes zone maps rebuild on replay.
func TestZoneMapAllAppendPaths(t *testing.T) {
	vals := []vector.Value{
		vector.IntValue(7), vector.IntValue(-2), vector.NullValue(vector.Int64),
		vector.IntValue(0), vector.IntValue(99), vector.IntValue(41),
	}
	chunk := func(lo, hi int) []*vector.Vector {
		a := vector.New(vector.Int64, hi-lo)
		f := vector.New(vector.Float64, hi-lo)
		for _, v := range vals[lo:hi] {
			if err := a.AppendValue(v); err != nil {
				t.Fatal(err)
			}
			f.AppendFloat64(float64(v.I64))
		}
		return []*vector.Vector{a, f}
	}
	rowTab, chunkTab, colTab := numTable(t, 1), numTable(t, 1), numTable(t, 1)
	for i := range vals {
		if err := rowTab.AppendColumns(0, chunk(i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range [][2]int{{0, 2}, {2, 5}, {5, 6}} {
		if err := chunkTab.AppendColumns(0, chunk(c[0], c[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := colTab.AppendColumns(0, chunk(0, len(vals))); err != nil {
		t.Fatal(err)
	}

	want := rowTab.ZoneMap(0, 0)
	for name, tab := range map[string]*Table{"chunks": chunkTab, "columns": colTab} {
		if got := tab.ZoneMap(0, 0); got != want {
			t.Errorf("%s append path zone = %+v, want %+v", name, got, want)
		}
	}
	if !want.Valid || want.Min.I64 != -2 || want.Max.I64 != 99 || !want.HasNull || want.Rows != 6 {
		t.Errorf("zone = %+v", want)
	}
}

// TestZoneMapMixedTypeBounds pins the exact int/float boundary comparisons:
// a float bound between two int values, and bounds beyond 2^53 where a
// float64 round-trip of the int would lie.
func TestZoneMapMixedTypeBounds(t *testing.T) {
	tab := numTable(t, 1)
	const p53 = int64(1) << 53
	for _, x := range []int64{-9000, 0, p53 + 1} {
		appendRow(t, tab, 0, vector.IntValue(x), vector.FloatValue(0))
	}
	// Max is 2^53+1; a float lo of exactly 2^53 does NOT prune (2^53+1 ≥ lo)
	// even though float64(2^53+1) == 2^53 would make them look equal.
	if tab.ZonePrunes(0, 0, vector.FloatValue(math.Pow(2, 53)), vector.NullValue(vector.Int64)) {
		t.Error("lo=2^53 must not prune a partition whose max is 2^53+1")
	}
	// lo strictly above the true max prunes.
	if !tab.ZonePrunes(0, 0, vector.FloatValue(math.Pow(2, 54)), vector.NullValue(vector.Int64)) {
		t.Error("lo=2^54 must prune")
	}
	// Fractional hi below the min: -9000 > -9000.5 ⇒ prune.
	if !tab.ZonePrunes(0, 0, vector.NullValue(vector.Int64), vector.FloatValue(-9000.5)) {
		t.Error("hi=-9000.5 must prune a partition whose min is -9000")
	}
	if tab.ZonePrunes(0, 0, vector.NullValue(vector.Int64), vector.FloatValue(-8999.5)) {
		t.Error("hi=-8999.5 overlaps min=-9000, must not prune")
	}
}

// TestPruneRangesMixedTypeBounds is the regression test for block-level SMA
// pruning with a float bound on an int column: the old float-promoting
// comparison dropped blocks that still contained matches.
func TestPruneRangesMixedTypeBounds(t *testing.T) {
	tab := numTable(t, 1)
	n := 3*BlockSize + 17 // several blocks plus a partial tail
	a := vector.New(vector.Int64, n)
	f := vector.New(vector.Float64, n)
	for i := 0; i < n; i++ {
		a.AppendInt64(-int64(i))
		f.AppendFloat64(0)
	}
	if err := tab.AppendColumns(0, []*vector.Vector{a, f}); err != nil {
		t.Fatal(err)
	}
	// Values are 0..-(n-1) descending, so block b spans
	// [-(end-1), -start]. A fractional lo bound must keep every block whose
	// max is above it.
	lo := vector.FloatValue(-(float64(BlockSize) + 0.5))
	ranges := tab.PruneRanges(0, 0, lo, vector.NullValue(vector.Float64), false)
	kept := 0
	for _, r := range ranges {
		kept += int(r.End - r.Start)
	}
	// Rows with value ≥ lo are i = 0..BlockSize (value -BlockSize > lo):
	// they live in blocks 0 and 1, so pruning must keep at least those rows
	// and must drop blocks 2 and 3.
	if kept < BlockSize+1 {
		t.Fatalf("pruning dropped matching rows: kept %d, need ≥ %d", kept, BlockSize+1)
	}
	if kept > 2*BlockSize {
		t.Fatalf("pruning kept non-matching blocks: kept %d rows", kept)
	}
	// Brute-force check: every surviving range only needs to be a superset
	// of matches; verify no match fell outside the kept ranges.
	inRanges := func(row int) bool {
		for _, r := range ranges {
			if uint64(row) >= r.Start && uint64(row) < r.End {
				return true
			}
		}
		return false
	}
	for i := 0; i <= BlockSize; i++ {
		if !inRanges(i) {
			t.Fatalf("matching row %d (value %d) pruned away", i, -i)
		}
	}
}
