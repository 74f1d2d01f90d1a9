package storage

import (
	"math/rand"
	"testing"

	"patchindex/internal/vector"
)

func newTestTable(t *testing.T, parts int) *Table {
	t.Helper()
	tab, err := NewTable("t", NewSchema(
		Column{Name: "a", Typ: vector.Int64},
		Column{Name: "b", Typ: vector.String},
	), parts)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSchemaColumnIndex(t *testing.T) {
	s := NewSchema(Column{Name: "x", Typ: vector.Int64}, Column{Name: "y", Typ: vector.Float64})
	if s.ColumnIndex("x") != 0 || s.ColumnIndex("y") != 1 || s.ColumnIndex("z") != -1 {
		t.Error("ColumnIndex wrong")
	}
	types := s.Types()
	if len(types) != 2 || types[0] != vector.Int64 || types[1] != vector.Float64 {
		t.Errorf("Types() = %v", types)
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("t", NewSchema(Column{Name: "a", Typ: vector.Int64}), 0); err == nil {
		t.Error("zero partitions must fail")
	}
	if _, err := NewTable("t", NewSchema(), 1); err == nil {
		t.Error("empty schema must fail")
	}
	if _, err := NewTable("t", NewSchema(
		Column{Name: "a", Typ: vector.Int64},
		Column{Name: "a", Typ: vector.Int64},
	), 1); err == nil {
		t.Error("duplicate column names must fail")
	}
}

// appendRow appends one row through AppendColumns, as one single-row vector
// per column.
func appendRow(t *testing.T, tab *Table, part int, vals ...vector.Value) {
	t.Helper()
	cols := make([]*vector.Vector, len(vals))
	for i, v := range vals {
		cols[i] = vector.New(v.Typ, 1)
		if err := cols[i].AppendValue(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.AppendColumns(part, cols); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRow: single-row appends go to their partition, keep NULLs, and
// fail on a bad partition, a wrong arity or a wrong type.
func TestAppendRow(t *testing.T) {
	tab := newTestTable(t, 2)
	appendRow(t, tab, 0, vector.IntValue(1), vector.StringValue("x"))
	appendRow(t, tab, 1, vector.NullValue(vector.Int64), vector.StringValue("y"))
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if tab.Partition(0).NumRows() != 1 || tab.Partition(1).NumRows() != 1 {
		t.Error("partition row counts wrong")
	}
	if !tab.Partition(1).Column(0).IsNull(0) {
		t.Error("null lost")
	}
	// Errors.
	one := vector.NewFromInt64([]int64{1})
	x := vector.NewFromString([]string{"x"})
	if err := tab.AppendColumns(5, []*vector.Vector{one, x}); err == nil {
		t.Error("bad partition must fail")
	}
	if err := tab.AppendColumns(-1, []*vector.Vector{one, x}); err == nil {
		t.Error("negative partition must fail")
	}
	if err := tab.AppendColumns(0, []*vector.Vector{one}); err == nil {
		t.Error("wrong arity must fail")
	}
	if err := tab.AppendColumns(0, []*vector.Vector{vector.NewFromString([]string{"no"}), x}); err == nil {
		t.Error("wrong type must fail")
	}
	if tab.NumRows() != 2 {
		t.Errorf("failed appends changed the row count to %d", tab.NumRows())
	}
}

// TestAppendBatchAndColumns: a batch's vectors and plain multi-row columns
// append through AppendColumns; ragged or mistyped columns are refused.
func TestAppendBatchAndColumns(t *testing.T) {
	tab := newTestTable(t, 1)
	b := vector.NewBatch([]vector.Type{vector.Int64, vector.String})
	b.Vecs[0].AppendInt64(1)
	b.Vecs[1].AppendString("a")
	b.Vecs[0].AppendInt64(2)
	b.Vecs[1].AppendString("b")
	if err := tab.AppendColumns(0, b.Vecs); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	av := vector.NewFromInt64([]int64{3, 4})
	bv := vector.NewFromString([]string{"c", "d"})
	if err := tab.AppendColumns(0, []*vector.Vector{av, bv}); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 4 || tab.Partition(0).NumRows() != 4 {
		t.Fatalf("rows = %d, partition 0 rows = %d", tab.NumRows(), tab.Partition(0).NumRows())
	}
	// Errors.
	if err := tab.AppendColumns(0, []*vector.Vector{av}); err == nil {
		t.Error("wrong column count must fail")
	}
	if err := tab.AppendColumns(0, []*vector.Vector{av, vector.NewFromString([]string{"x"})}); err == nil {
		t.Error("ragged columns must fail")
	}
	if err := tab.AppendColumns(0, []*vector.Vector{bv, bv}); err == nil {
		t.Error("type mismatch must fail")
	}
	if tab.NumRows() != 4 {
		t.Errorf("failed appends changed the row count to %d", tab.NumRows())
	}
}

func TestSortKey(t *testing.T) {
	tab := newTestTable(t, 1)
	if err := tab.SetSortKey("a"); err != nil {
		t.Fatal(err)
	}
	if tab.SortKey() != "a" {
		t.Error("sort key lost")
	}
	if err := tab.SetSortKey("zz"); err == nil {
		t.Error("unknown sort key must fail")
	}
}

func TestFullRange(t *testing.T) {
	tab := newTestTable(t, 1)
	for i := 0; i < 10; i++ {
		appendRow(t, tab, 0, vector.IntValue(int64(i)), vector.StringValue("s"))
	}
	r := tab.FullRange(0)
	if len(r) != 1 || r[0].Start != 0 || r[0].End != 10 {
		t.Errorf("full range = %v", r)
	}
	if r[0].Len() != 10 {
		t.Errorf("range length = %d", r[0].Len())
	}
}

func TestPruneRanges(t *testing.T) {
	tab, err := NewTable("p", NewSchema(Column{Name: "v", Typ: vector.Int64}), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Three blocks: values 0..4095, 4096..8191, 8192..12287 (ascending).
	n := 3 * BlockSize
	col := vector.New(vector.Int64, n)
	for i := 0; i < n; i++ {
		col.AppendInt64(int64(i))
	}
	if err := tab.AppendColumns(0, []*vector.Vector{col}); err != nil {
		t.Fatal(err)
	}
	// Bound inside the second block only.
	lo, hi := vector.IntValue(5000), vector.IntValue(6000)
	r := tab.PruneRanges(0, 0, lo, hi, false)
	if len(r) != 1 || r[0].Start != BlockSize || r[0].End != 2*BlockSize {
		t.Errorf("pruned ranges = %v", r)
	}
	// Unbounded low side.
	r = tab.PruneRanges(0, 0, vector.NullValue(vector.Int64), vector.IntValue(100), false)
	if len(r) != 1 || r[0].Start != 0 || r[0].End != BlockSize {
		t.Errorf("pruned ranges = %v", r)
	}
	// Unsatisfiable bound prunes everything.
	r = tab.PruneRanges(0, 0, vector.IntValue(1_000_000), vector.NullValue(vector.Int64), false)
	if len(r) != 0 {
		t.Errorf("expected empty, got %v", r)
	}
	// Fully unbounded keeps one coalesced range.
	r = tab.PruneRanges(0, 0, vector.NullValue(vector.Int64), vector.NullValue(vector.Int64), false)
	if len(r) != 1 || r[0].Start != 0 || r[0].End != uint64(n) {
		t.Errorf("unbounded ranges = %v", r)
	}
}

func TestPruneRangesNullBlocks(t *testing.T) {
	tab, err := NewTable("p", NewSchema(Column{Name: "v", Typ: vector.Int64}), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Block 0: all NULL. Block 1: values.
	col := vector.New(vector.Int64, 2*BlockSize)
	for i := 0; i < BlockSize; i++ {
		col.AppendNull()
	}
	for i := 0; i < BlockSize; i++ {
		col.AppendInt64(int64(i))
	}
	if err := tab.AppendColumns(0, []*vector.Vector{col}); err != nil {
		t.Fatal(err)
	}
	// Without keepNulls the all-NULL block is pruned.
	r := tab.PruneRanges(0, 0, vector.IntValue(0), vector.NullValue(vector.Int64), false)
	if len(r) != 1 || r[0].Start != BlockSize {
		t.Errorf("ranges = %v", r)
	}
	// With keepNulls it survives.
	r = tab.PruneRanges(0, 0, vector.IntValue(0), vector.NullValue(vector.Int64), true)
	if len(r) != 1 || r[0].Start != 0 {
		t.Errorf("keepNulls ranges = %v", r)
	}
}

// TestPruneRangesSoundness: pruning must never lose a qualifying row.
func TestPruneRangesSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab, err := NewTable("p", NewSchema(Column{Name: "v", Typ: vector.Int64}), 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 5*BlockSize + 123
	vals := make([]int64, n)
	col := vector.New(vector.Int64, n)
	for i := 0; i < n; i++ {
		vals[i] = rng.Int63n(1000)
		col.AppendInt64(vals[i])
	}
	if err := tab.AppendColumns(0, []*vector.Vector{col}); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		lo := rng.Int63n(1000)
		hi := lo + rng.Int63n(200)
		ranges := tab.PruneRanges(0, 0, vector.IntValue(lo), vector.IntValue(hi), false)
		covered := func(row uint64) bool {
			for _, r := range ranges {
				if row >= r.Start && row < r.End {
					return true
				}
			}
			return false
		}
		for i, v := range vals {
			if v >= lo && v <= hi && !covered(uint64(i)) {
				t.Fatalf("row %d (value %d in [%d,%d]) pruned away", i, v, lo, hi)
			}
		}
		// Ranges must be sorted and non-overlapping.
		for i := 1; i < len(ranges); i++ {
			if ranges[i-1].End > ranges[i].Start {
				t.Fatalf("ranges overlap: %v", ranges)
			}
		}
	}
}

func TestZoneStaleness(t *testing.T) {
	tab := newTestTable(t, 2)
	if sr, sp := tab.ZoneStaleness(); sr != 0 || sp != 0 {
		t.Fatalf("fresh table staleness = %d rows / %d parts, want 0/0", sr, sp)
	}

	// Every append counts toward staleness, whatever its size.
	appendRow(t, tab, 0, vector.IntValue(1), vector.StringValue("x"))
	if err := tab.AppendColumns(0, []*vector.Vector{
		vector.NewFromInt64([]int64{2, 3}),
		vector.NewFromString([]string{"y", "z"}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendColumns(1, []*vector.Vector{
		vector.NewFromInt64([]int64{4, 5}),
		vector.NewFromString([]string{"p", "q"}),
	}); err != nil {
		t.Fatal(err)
	}
	if sr, sp := tab.ZoneStaleness(); sr != 5 || sp != 2 {
		t.Fatalf("staleness = %d rows / %d parts, want 5/2", sr, sp)
	}

	before := tab.ZoneMap(0, 0)
	tab.RecomputeZones()
	if sr, sp := tab.ZoneStaleness(); sr != 0 || sp != 0 {
		t.Fatalf("staleness after recompute = %d/%d, want 0/0", sr, sp)
	}
	// Recompute must preserve a correct zone map, not loosen or tighten it
	// incorrectly: same bounds, same row counts.
	after := tab.ZoneMap(0, 0)
	if !after.Valid || after.Rows != before.Rows ||
		after.Min.Compare(before.Min) != 0 ||
		after.Max.Compare(before.Max) != 0 ||
		after.HasNull != before.HasNull {
		t.Fatalf("zone map changed across recompute: before %+v after %+v", before, after)
	}

	// New appends after the recompute restart the drift counter.
	appendRow(t, tab, 1, vector.IntValue(6), vector.StringValue("r"))
	if sr, sp := tab.ZoneStaleness(); sr != 1 || sp != 1 {
		t.Fatalf("staleness after fresh append = %d/%d, want 1/1", sr, sp)
	}
}
