package maintain

import (
	"math"
	"math/rand"
	"testing"

	"patchindex/internal/discovery"
	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

func intVec(vals ...int64) *vector.Vector {
	v := vector.New(vector.Int64, len(vals))
	for _, x := range vals {
		v.AppendInt64(x)
	}
	return v
}

func newTableWith(t *testing.T, parts int, chunks ...[]int64) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable("t", storage.NewSchema(storage.Column{Name: "c", Typ: vector.Int64}), parts)
	if err != nil {
		t.Fatal(err)
	}
	for p, chunk := range chunks {
		if err := tab.AppendColumns(p, []*vector.Vector{intVec(chunk...)}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func buildIdx(t *testing.T, tab *storage.Table, c patch.Constraint) *patch.Index {
	t.Helper()
	ix, err := discovery.BuildIndex(tab, "c", c, discovery.BuildOptions{Kind: patch.Auto, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// verifyNUC re-checks conditions NUC1/NUC2 from the table and set contents.
func verifyNUC(t *testing.T, tab *storage.Table, ix *patch.Index) {
	t.Helper()
	for p := 0; p < tab.NumPartitions(); p++ {
		set := ix.Partition(p)
		if set.NumRows() != tab.Partition(p).NumRows() {
			t.Fatalf("partition %d: set covers %d rows, table has %d", p, set.NumRows(), tab.Partition(p).NumRows())
		}
	}
	nonPatch := map[int64]bool{}
	patchVals := map[int64]bool{}
	for p := 0; p < tab.NumPartitions(); p++ {
		col := tab.Partition(p).Column(0)
		set := ix.Partition(p)
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				if !set.Contains(uint64(i)) {
					t.Fatalf("NULL at p%d/%d not a patch", p, i)
				}
				continue
			}
			v := col.I64[i]
			if set.Contains(uint64(i)) {
				patchVals[v] = true
				continue
			}
			if nonPatch[v] {
				t.Fatalf("NUC1 violated: duplicate non-patch value %d", v)
			}
			nonPatch[v] = true
		}
	}
	for v := range patchVals {
		if nonPatch[v] {
			t.Fatalf("NUC2 violated: value %d both patch and non-patch", v)
		}
	}
}

// verifyNSC re-checks condition NSC1 per partition.
func verifyNSC(t *testing.T, tab *storage.Table, ix *patch.Index) {
	t.Helper()
	for p := 0; p < tab.NumPartitions(); p++ {
		col := tab.Partition(p).Column(0)
		set := ix.Partition(p)
		last := int64(-1 << 62)
		for i := 0; i < col.Len(); i++ {
			if set.Contains(uint64(i)) {
				continue
			}
			if col.IsNull(i) {
				t.Fatalf("NULL at p%d/%d not a patch", p, i)
			}
			if col.I64[i] < last {
				t.Fatalf("NSC1 violated at p%d/%d", p, i)
			}
			last = col.I64[i]
		}
	}
}

func TestMaintainNUCAppendUniqueValues(t *testing.T) {
	tab := newTableWith(t, 1, []int64{1, 2, 3})
	ix := buildIdx(t, tab, patch.NearlyUnique)
	s, err := NewSet(tab, []*patch.Index{ix})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(0, []*vector.Vector{intVec(4, 5)}); err != nil {
		t.Fatal(err)
	}
	if ix.Cardinality() != 0 {
		t.Errorf("unique appends created %d patches", ix.Cardinality())
	}
	verifyNUC(t, tab, ix)
}

func TestMaintainNUCRetroactivePatch(t *testing.T) {
	tab := newTableWith(t, 1, []int64{1, 2, 3})
	ix := buildIdx(t, tab, patch.NearlyUnique)
	s, err := NewSet(tab, []*patch.Index{ix})
	if err != nil {
		t.Fatal(err)
	}
	// Appending 2 makes BOTH the old row (id 1) and the new row patches.
	if err := s.Append(0, []*vector.Vector{intVec(2)}); err != nil {
		t.Fatal(err)
	}
	set := ix.Partition(0)
	if !set.Contains(1) || !set.Contains(3) || ix.Cardinality() != 2 {
		t.Errorf("retro patching failed: card=%d", ix.Cardinality())
	}
	verifyNUC(t, tab, ix)
	// A third 2 is also a patch, but the old ones stay.
	if err := s.Append(0, []*vector.Vector{intVec(2)}); err != nil {
		t.Fatal(err)
	}
	if ix.Cardinality() != 3 {
		t.Errorf("card = %d, want 3", ix.Cardinality())
	}
	verifyNUC(t, tab, ix)
}

func TestMaintainNUCCrossPartitionRetro(t *testing.T) {
	tab := newTableWith(t, 2, []int64{1, 2}, []int64{3, 4})
	ix := buildIdx(t, tab, patch.NearlyUnique)
	s, err := NewSet(tab, []*patch.Index{ix})
	if err != nil {
		t.Fatal(err)
	}
	// Append a duplicate of partition 0's value into partition 1.
	if err := s.Append(1, []*vector.Vector{intVec(1)}); err != nil {
		t.Fatal(err)
	}
	if !ix.Partition(0).Contains(0) {
		t.Error("old occurrence in partition 0 must become a patch")
	}
	if !ix.Partition(1).Contains(2) {
		t.Error("new occurrence in partition 1 must be a patch")
	}
	verifyNUC(t, tab, ix)
}

func TestMaintainNUCNulls(t *testing.T) {
	tab := newTableWith(t, 1, []int64{1})
	ix := buildIdx(t, tab, patch.NearlyUnique)
	s, _ := NewSet(tab, []*patch.Index{ix})
	v := vector.New(vector.Int64, 2)
	v.AppendNull()
	v.AppendInt64(9)
	if err := s.Append(0, []*vector.Vector{v}); err != nil {
		t.Fatal(err)
	}
	if !ix.Partition(0).Contains(1) || ix.Partition(0).Contains(2) {
		t.Error("NULL must be a patch, 9 must not")
	}
	verifyNUC(t, tab, ix)
}

func TestMaintainNUCDuplicateOfExistingPatchValue(t *testing.T) {
	// Table starts with duplicates: 5 appears twice (both patches).
	tab := newTableWith(t, 1, []int64{5, 5, 7})
	ix := buildIdx(t, tab, patch.NearlyUnique)
	s, _ := NewSet(tab, []*patch.Index{ix})
	if err := s.Append(0, []*vector.Vector{intVec(5)}); err != nil {
		t.Fatal(err)
	}
	if ix.Cardinality() != 3 {
		t.Errorf("card = %d, want 3", ix.Cardinality())
	}
	verifyNUC(t, tab, ix)
}

func TestMaintainNSCInOrderAppends(t *testing.T) {
	tab := newTableWith(t, 1, []int64{1, 2, 3})
	ix := buildIdx(t, tab, patch.NearlySorted)
	s, _ := NewSet(tab, []*patch.Index{ix})
	if err := s.Append(0, []*vector.Vector{intVec(3, 4, 10)}); err != nil {
		t.Fatal(err)
	}
	if ix.Cardinality() != 0 {
		t.Errorf("in-order appends created %d patches", ix.Cardinality())
	}
	verifyNSC(t, tab, ix)
}

func TestMaintainNSCOutOfOrderAppends(t *testing.T) {
	tab := newTableWith(t, 1, []int64{1, 5, 9})
	ix := buildIdx(t, tab, patch.NearlySorted)
	s, _ := NewSet(tab, []*patch.Index{ix})
	if err := s.Append(0, []*vector.Vector{intVec(4, 12, 11)}); err != nil {
		t.Fatal(err)
	}
	// 4 < 9 (last): patch. 12: ok. 11 < 12: patch.
	set := ix.Partition(0)
	if !set.Contains(3) || set.Contains(4) || !set.Contains(5) {
		t.Errorf("NSC classification wrong: %v", ix)
	}
	verifyNSC(t, tab, ix)
}

func TestMaintainNSCDescending(t *testing.T) {
	tab := newTableWith(t, 1, []int64{9, 7, 5})
	ix, err := discovery.BuildIndex(tab, "c", patch.NearlySorted,
		discovery.BuildOptions{Kind: patch.Auto, Threshold: 1, Descending: true})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewSet(tab, []*patch.Index{ix})
	if err := s.Append(0, []*vector.Vector{intVec(4, 6, 3)}); err != nil {
		t.Fatal(err)
	}
	set := ix.Partition(0)
	// 4 <= 5 ok; 6 > 4 patch; 3 <= 4 ok.
	if set.Contains(3) || !set.Contains(4) || set.Contains(5) {
		t.Error("descending NSC classification wrong")
	}
}

func TestMaintainNSCAfterExistingPatches(t *testing.T) {
	// Last row is a patch: maintenance must key off the last NON-patch value.
	tab := newTableWith(t, 1, []int64{1, 5, 2})
	ix := buildIdx(t, tab, patch.NearlySorted)
	s, _ := NewSet(tab, []*patch.Index{ix})
	// LSS is 1,2 (patch is 5) or 1,5 (patch 2) — discovery picks one minimal
	// set; appending a value >= the last non-patch must stay clean.
	if err := s.Append(0, []*vector.Vector{intVec(100)}); err != nil {
		t.Fatal(err)
	}
	if ix.Partition(0).Contains(3) {
		t.Error("value above every previous one must not be a patch")
	}
	verifyNSC(t, tab, ix)
}

func TestMaintainMultipleIndexesOneAppend(t *testing.T) {
	tab, err := storage.NewTable("t", storage.NewSchema(
		storage.Column{Name: "c", Typ: vector.Int64},
		storage.Column{Name: "d", Typ: vector.Int64},
	), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendColumns(0, []*vector.Vector{intVec(1, 2, 3), intVec(10, 20, 30)}); err != nil {
		t.Fatal(err)
	}
	nuc, err := discovery.BuildIndex(tab, "c", patch.NearlyUnique, discovery.BuildOptions{Kind: patch.Auto, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	nsc, err := discovery.BuildIndex(tab, "d", patch.NearlySorted, discovery.BuildOptions{Kind: patch.Auto, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSet(tab, []*patch.Index{nuc, nsc})
	if err != nil {
		t.Fatal(err)
	}
	// c: 2 duplicates an existing value; d: 15 breaks the order.
	if err := s.Append(0, []*vector.Vector{intVec(2), intVec(15)}); err != nil {
		t.Fatal(err)
	}
	if nuc.Cardinality() != 2 {
		t.Errorf("nuc card = %d", nuc.Cardinality())
	}
	if nsc.Cardinality() != 1 {
		t.Errorf("nsc card = %d", nsc.Cardinality())
	}
	verifyNUC(t, tab, nuc)
	verifyNSC(t, tab, nsc)
}

// TestMaintainRandomizedInvariants: random append workloads must preserve
// NUC1/NUC2 and NSC1 at every step.
func TestMaintainRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		parts := 1 + rng.Intn(3)
		chunks := make([][]int64, parts)
		for p := range chunks {
			n := rng.Intn(50)
			for i := 0; i < n; i++ {
				chunks[p] = append(chunks[p], int64(i+rng.Intn(3)))
			}
		}
		tab := newTableWith(t, parts, chunks...)
		nuc := buildIdx(t, tab, patch.NearlyUnique)
		nsc := buildIdx(t, tab, patch.NearlySorted)
		s, err := NewSet(tab, []*patch.Index{nuc, nsc})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			p := rng.Intn(parts)
			n := 1 + rng.Intn(20)
			v := vector.New(vector.Int64, n)
			for i := 0; i < n; i++ {
				if rng.Intn(10) == 0 {
					v.AppendNull()
				} else {
					v.AppendInt64(rng.Int63n(200))
				}
			}
			if err := s.Append(p, []*vector.Vector{v}); err != nil {
				t.Fatal(err)
			}
			verifyNUC(t, tab, nuc)
			verifyNSC(t, tab, nsc)
		}
	}
}

func TestNewMaintainerValidation(t *testing.T) {
	tab := newTableWith(t, 1, []int64{1})
	unbuilt, err := patch.NewIndex("t", "c", patch.NearlyUnique, patch.Auto, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaintainer(tab, unbuilt); err == nil {
		t.Error("unbuilt index must be rejected")
	}
	other := buildIdx(t, tab, patch.NearlyUnique)
	tab2 := newTableWith(t, 1, []int64{1})
	_ = tab2
	wrongCol, err := patch.NewIndex("t", "zzz", patch.NearlyUnique, patch.Auto, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongCol.SetPartition(0, nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaintainer(tab, wrongCol); err == nil {
		t.Error("unknown column must be rejected")
	}
	if _, err := NewMaintainer(tab, other); err != nil {
		t.Errorf("valid maintainer rejected: %v", err)
	}
}

// TestMaintainNUCMatchesRebuild appends random batches of every key type
// (strings of a few lengths, floats with both zeros and a NaN, NULLs) and
// checks after each one that the maintained NUC patches are exactly those a
// rebuild from the table finds: maintenance keeps the set minimal, and
// agrees with discovery on which values are equal.
func TestMaintainNUCMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	gen := map[vector.Type]func(v *vector.Vector){
		vector.Int64: func(v *vector.Vector) { v.AppendInt64(rng.Int63n(40) - 20) },
		vector.String: func(v *vector.Vector) {
			v.AppendString(string(make([]byte, rng.Intn(4)*5)) + string(rune('a'+rng.Intn(10))))
		},
		vector.Float64: func(v *vector.Vector) {
			switch x := rng.Intn(12); x {
			case 0:
				v.AppendFloat64(math.Copysign(0, -1))
			case 1:
				v.AppendFloat64(math.NaN())
			default:
				v.AppendFloat64(float64(x) / 2)
			}
		},
	}
	for _, typ := range []vector.Type{vector.Int64, vector.String, vector.Float64} {
		add := gen[typ]
		for trial := 0; trial < 4; trial++ {
			parts := 1 + rng.Intn(3)
			schema := storage.NewSchema(storage.Column{Name: "c", Typ: typ})
			tab, err := storage.NewTable("t", schema, parts)
			if err != nil {
				t.Fatal(err)
			}
			batch := func(n int) *vector.Vector {
				v := vector.New(typ, n)
				for i := 0; i < n; i++ {
					if rng.Intn(12) == 0 {
						v.AppendNull()
					} else {
						add(v)
					}
				}
				return v
			}
			for p := 0; p < parts; p++ {
				if err := tab.AppendColumns(p, []*vector.Vector{batch(rng.Intn(20))}); err != nil {
					t.Fatal(err)
				}
			}
			ix := buildIdx(t, tab, patch.NearlyUnique)
			s, err := NewSet(tab, []*patch.Index{ix})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 6; step++ {
				if err := s.Append(rng.Intn(parts), []*vector.Vector{batch(1 + rng.Intn(15))}); err != nil {
					t.Fatal(err)
				}
				want := buildIdx(t, tab, patch.NearlyUnique)
				for p := 0; p < parts; p++ {
					for i := 0; i < tab.Partition(p).NumRows(); i++ {
						if got, w := ix.Partition(p).Contains(uint64(i)), want.Partition(p).Contains(uint64(i)); got != w {
							t.Fatalf("%s, step %d: row p%d/%d maintained as patch=%v, rebuild says %v", typ, step, p, i, got, w)
						}
					}
				}
			}
		}
	}
}
