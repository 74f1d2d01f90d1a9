package discovery

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// relation is one differential case: the partitions of one column.
type relation struct {
	name string
	typ  vector.Type
	cols []*vector.Vector
}

// intRelation builds an Int64 or Date relation from per-partition values,
// turning each value into NULL with probability nullPct/100.
func intRelation(name string, typ vector.Type, parts [][]int64, nullPct int, rng *rand.Rand) relation {
	r := relation{name: fmt.Sprintf("%s/%s/null%d", name, typ, nullPct), typ: typ}
	for _, vals := range parts {
		v := vector.New(typ, len(vals))
		for _, x := range vals {
			if rng.Intn(100) < nullPct {
				v.AppendNull()
			} else {
				v.AppendInt64(x)
			}
		}
		r.cols = append(r.cols, v)
	}
	return r
}

// split cuts vals into parts pieces of uneven length; every third piece is
// left empty.
func split(vals []int64, parts int, rng *rand.Rand) [][]int64 {
	out := make([][]int64, parts)
	for p := 0; p < parts; p++ {
		if p%3 == 2 || p == parts-1 {
			continue
		}
		cut := rng.Intn(len(vals) + 1)
		out[p], vals = vals[:cut], vals[cut:]
	}
	out[parts-1] = vals
	return out
}

func differentialRelations(rng *rand.Rand) []relation {
	const n = 3000
	gen := func(f func(i int) int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	shapes := []struct {
		name string
		vals []int64
	}{
		{"random-dense", gen(func(int) int64 { return rng.Int63n(n / 4) })},
		{"random-wide", gen(func(int) int64 { return rng.Int63() })},
		{"negative", gen(func(int) int64 { return -rng.Int63n(n) })},
		{"around-zero", gen(func(int) int64 { return rng.Int63n(41) - 20 })},
		{"extremes", gen(func(i int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1, int64(i)}[rng.Intn(8)]
		})},
		{"multiples-of-2^20", gen(func(int) int64 { return (rng.Int63n(n) - n/2) << 20 })},
		{"multiples-of-2^48", gen(func(int) int64 { return (rng.Int63n(n) - n/2) << 48 })},
		{"all-equal", gen(func(int) int64 { return 42 })},
		{"unique-ascending", gen(func(i int) int64 { return int64(i) - n/2 })},
		{"unique-descending", gen(func(i int) int64 { return int64(n - i) })},
		{"nearly-sorted", gen(func(i int) int64 {
			if rng.Intn(20) == 0 {
				return rng.Int63n(n)
			}
			return int64(i)
		})},
		{"nearly-sorted-descending", gen(func(i int) int64 {
			if rng.Intn(20) == 0 {
				return -rng.Int63n(n)
			}
			return -int64(i / 3) // runs of equal values
		})},
	}
	var rels []relation
	for _, sh := range shapes {
		for _, nullPct := range []int{0, 1, 50, 100} {
			for _, typ := range []vector.Type{vector.Int64, vector.Date} {
				for _, parts := range []int{1, 8} {
					rels = append(rels, intRelation(fmt.Sprintf("%s/p%d", sh.name, parts), typ, split(sh.vals, parts, rng), nullPct, rng))
				}
			}
		}
	}
	// Duplicates that only exist across partitions: each partition is unique
	// on its own, every value also lives in one other partition.
	cross := make([][]int64, 4)
	for p := range cross {
		for i := 0; i < 500; i++ {
			cross[p] = append(cross[p], int64((p%2)*1000+i))
		}
	}
	rels = append(rels, intRelation("cross-partition", vector.Int64, cross, 0, rng))
	rels = append(rels, intRelation("only-empty-partitions", vector.Int64, make([][]int64, 3), 0, rng))

	// The fallback types go through the same harness.
	strs := relation{name: "strings", typ: vector.String}
	floats := relation{name: "floats", typ: vector.Float64}
	bools := relation{name: "bools", typ: vector.Bool}
	for p := 0; p < 3; p++ {
		sv, fv, bv := vector.New(vector.String, 0), vector.New(vector.Float64, 0), vector.New(vector.Bool, 0)
		for i := 0; i < 400; i++ {
			if rng.Intn(10) == 0 {
				sv.AppendNull()
				fv.AppendNull()
				bv.AppendNull()
				continue
			}
			sv.AppendString(fmt.Sprintf("k%03d", i+rng.Intn(30)))
			fv.AppendFloat64(float64(i+rng.Intn(30)) / 4)
			bv.AppendBool(i > 200)
		}
		strs.cols, floats.cols, bools.cols = append(strs.cols, sv), append(floats.cols, fv), append(bools.cols, bv)
	}
	return append(rels, strs, floats, bools)
}

// samePatches compares two per-partition patch lists, treating nil and empty
// alike.
func samePatches(got, want [][]uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for p := range got {
		if len(got[p])+len(want[p]) > 0 && !reflect.DeepEqual(got[p], want[p]) {
			return false
		}
	}
	return true
}

// indexPatches reads every partition's patch ids back out of a built index.
func indexPatches(ix *patch.Index, parts int) [][]uint64 {
	out := make([][]uint64, parts)
	for p := range out {
		for it := ix.Partition(p).Iter(0); it.Valid(); it.Next() {
			out[p] = append(out[p], it.Row())
		}
	}
	return out
}

// concat glues the partitions into one column and their patch lists into one
// list, so the single-column verifiers can check the global NUC conditions.
func concat(r relation, perPart [][]uint64) (*vector.Vector, []uint64) {
	all := vector.New(r.typ, 0)
	var patches []uint64
	for c, col := range r.cols {
		for _, p := range perPart[c] {
			patches = append(patches, uint64(all.Len())+p)
		}
		all.AppendRange(col, 0, col.Len())
	}
	return all, patches
}

// TestDifferentialDiscovery holds the typed NUC and NSC paths to the
// reference oracles: same patch ids in the same order for every worker
// count, through the helpers and through BuildIndex, with every result also
// passed to the verifiers.
func TestDifferentialDiscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, r := range differentialRelations(rng) {
		r := r
		t.Run(r.name, func(t *testing.T) {
			wantNUC := refNUC(r.cols)
			for _, workers := range []int{1, 2, 8} {
				if got := nucPatches(r.cols, workers); !samePatches(got, wantNUC) {
					t.Fatalf("nucPatches, %d workers: differs from the reference", workers)
				}
			}
			all, allPatches := concat(r, wantNUC)
			if err := VerifyNUC(all, allPatches); err != nil {
				t.Fatalf("VerifyNUC over the whole relation: %v", err)
			}
			wantNSC := map[bool][][]uint64{false: make([][]uint64, len(r.cols)), true: make([][]uint64, len(r.cols))}
			for c, col := range r.cols {
				if got := DiscoverNUC(col).Patches; !samePatches([][]uint64{got}, refNUC([]*vector.Vector{col})) {
					t.Fatalf("DiscoverNUC, partition %d: differs from the reference", c)
				}
				for _, desc := range []bool{false, true} {
					want := refNSC(col, desc)
					wantNSC[desc][c] = want
					res := DiscoverNSC(col, desc)
					if !samePatches([][]uint64{res.Patches}, [][]uint64{want}) {
						t.Fatalf("DiscoverNSC, partition %d, descending=%v: differs from the reference", c, desc)
					}
					if got := LongestSortedSubsequenceLength(col, desc); got != col.Len()-len(want) {
						t.Fatalf("LongestSortedSubsequenceLength, partition %d, descending=%v: %d, want %d", c, desc, got, col.Len()-len(want))
					}
					if err := VerifyNSC(col, res.Patches, desc); err != nil {
						t.Fatalf("VerifyNSC, partition %d, descending=%v: %v", c, desc, err)
					}
				}
			}

			tab, err := storage.NewTable("r", storage.NewSchema(storage.Column{Name: "c", Typ: r.typ}), len(r.cols))
			if err != nil {
				t.Fatal(err)
			}
			for p, col := range r.cols {
				if err := tab.AppendColumns(p, []*vector.Vector{col}); err != nil {
					t.Fatal(err)
				}
			}
			for _, parallelism := range []int{1, 2, 8} {
				for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
					opts := BuildOptions{Kind: kind, Threshold: 1, Parallelism: parallelism}
					ix, err := BuildIndex(tab, "c", patch.NearlyUnique, opts)
					if err != nil {
						t.Fatal(err)
					}
					got := indexPatches(ix, len(r.cols))
					if !samePatches(got, wantNUC) {
						t.Fatalf("BuildIndex NUC, parallelism %d, %v: differs from the reference", parallelism, kind)
					}
					if err := VerifyNUC(concat(r, got)); err != nil {
						t.Fatalf("BuildIndex NUC, parallelism %d: %v", parallelism, err)
					}
					for _, desc := range []bool{false, true} {
						opts.Descending = desc
						ix, err := BuildIndex(tab, "c", patch.NearlySorted, opts)
						if err != nil {
							t.Fatal(err)
						}
						got := indexPatches(ix, len(r.cols))
						if !samePatches(got, wantNSC[desc]) {
							t.Fatalf("BuildIndex NSC, parallelism %d, descending=%v, %v: differs from the reference", parallelism, desc, kind)
						}
						for p, col := range r.cols {
							if err := VerifyNSC(col, got[p], desc); err != nil {
								t.Fatalf("BuildIndex NSC, parallelism %d, partition %d: %v", parallelism, p, err)
							}
						}
					}
				}
			}
		})
	}
}

// TestNUCBuildAllocations: an int64 NUC build allocates a fixed handful of
// buffers plus a patch list per partition, never per row. The same build
// through the string-map fallback allocates a key per distinct value.
func TestNUCBuildAllocations(t *testing.T) {
	const parts = 8
	column := func(rows int) []*vector.Vector {
		rng := rand.New(rand.NewSource(5))
		cols := make([]*vector.Vector, parts)
		for p := range cols {
			cols[p] = vector.New(vector.Int64, rows/parts)
			for i := 0; i < rows/parts; i++ {
				if rng.Intn(20) == 0 {
					cols[p].AppendInt64(int64(rng.Intn(rows / 100)))
				} else {
					cols[p].AppendInt64(int64(rows + p*rows + i))
				}
			}
		}
		return cols
	}
	allocs := func(cols []*vector.Vector) float64 {
		return testing.AllocsPerRun(3, func() { nucPatches(cols, 1) })
	}
	small, large := allocs(column(8_000)), allocs(column(64_000))
	// Eight times the rows may add the few doublings of each partition's
	// growing patch list, nothing proportional to the rows.
	if large > small+parts*4 || large > 40*parts {
		t.Fatalf("int64 NUC build: %.0f allocations at 8 k rows, %.0f at 64 k", small, large)
	}
	var buf []*vector.Vector
	for _, col := range column(8_000) {
		fv := vector.New(vector.Float64, col.Len())
		for _, x := range col.I64 {
			fv.AppendFloat64(float64(x))
		}
		buf = append(buf, fv)
	}
	if fallback := allocs(buf); fallback < 4_000 {
		t.Fatalf("fallback path allocated only %.0f times for 8 k rows: is it still the string map?", fallback)
	}
}

func TestVerifyRejectsMalformedPatchLists(t *testing.T) {
	col := intVec(1, 1, 2, 3)
	for name, patches := range map[string][]uint64{
		"unsorted":     {1, 0},
		"repeated":     {0, 1, 1},
		"out of range": {0, 1, 4},
	} {
		if err := VerifyNUC(col, patches); err == nil {
			t.Errorf("VerifyNUC accepted an %s patch list", name)
		}
		if err := VerifyNSC(col, patches, false); err == nil {
			t.Errorf("VerifyNSC accepted an %s patch list", name)
		}
	}
	if err := VerifyNUC(col, []uint64{0, 1}); err != nil {
		t.Errorf("well-formed list rejected: %v", err)
	}
	if err := VerifyNSC(col, []uint64{0, 1, 3}, false); err != nil {
		t.Errorf("a non-minimal but valid NSC list is still valid: %v", err)
	}
}
