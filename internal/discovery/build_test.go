package discovery

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// twoPartTable builds a 2-partition table with the given int64 column values
// split evenly.
func twoPartTable(t *testing.T, name string, vals []int64) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable(name, storage.NewSchema(storage.Column{Name: "c", Typ: vector.Int64}), 2)
	if err != nil {
		t.Fatal(err)
	}
	half := len(vals) / 2
	for p, chunk := range [][]int64{vals[:half], vals[half:]} {
		v := vector.New(vector.Int64, len(chunk))
		for _, x := range chunk {
			v.AppendInt64(x)
		}
		if err := tab.AppendColumns(p, []*vector.Vector{v}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestBuildIndexNUCGlobalDuplicates(t *testing.T) {
	// Value 7 appears once in each partition: per-partition discovery would
	// miss it; the global grouping must catch both occurrences.
	tab := twoPartTable(t, "t", []int64{1, 7, 2, 3, 7, 4})
	ix, err := BuildIndex(tab, "c", patch.NearlyUnique, BuildOptions{Kind: patch.Auto, Threshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Cardinality() != 2 {
		t.Fatalf("cardinality = %d, want 2 (both 7s)", ix.Cardinality())
	}
	// The ids must be partition-local: row 1 in partition 0, row 1 in p1.
	if !ix.Partition(0).Contains(1) {
		t.Error("partition 0 should contain local row 1")
	}
	if !ix.Partition(1).Contains(1) {
		t.Error("partition 1 should contain local row 1")
	}
}

func TestBuildIndexNSCPerPartition(t *testing.T) {
	// Each partition is locally sorted even though the concatenation is not:
	// NSC discovery is per partition, so no patches.
	tab := twoPartTable(t, "t", []int64{10, 20, 30, 1, 2, 3})
	ix, err := BuildIndex(tab, "c", patch.NearlySorted, BuildOptions{Kind: patch.Auto, Threshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Cardinality() != 0 {
		t.Errorf("locally sorted partitions should have no patches, got %d", ix.Cardinality())
	}
}

func TestBuildIndexThreshold(t *testing.T) {
	tab := twoPartTable(t, "t", []int64{1, 1, 1, 1, 2, 3}) // 4/6 exceptions
	_, err := BuildIndex(tab, "c", patch.NearlyUnique, BuildOptions{Kind: patch.Auto, Threshold: 0.5})
	var te *ThresholdError
	if !errors.As(err, &te) {
		t.Fatalf("expected ThresholdError, got %v", err)
	}
	if te.Rate <= te.Threshold {
		t.Errorf("error rate %v should exceed threshold %v", te.Rate, te.Threshold)
	}
	if te.Error() == "" {
		t.Error("empty error text")
	}
	// Force overrides the threshold.
	ix, err := BuildIndex(tab, "c", patch.NearlyUnique, BuildOptions{Kind: patch.Auto, Threshold: 0.5, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Cardinality() != 4 {
		t.Errorf("forced index cardinality = %d", ix.Cardinality())
	}
}

func TestBuildIndexUnknownColumn(t *testing.T) {
	tab := twoPartTable(t, "t", []int64{1, 2})
	if _, err := BuildIndex(tab, "nope", patch.NearlyUnique, BuildOptions{}); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestBuildIndexDescending(t *testing.T) {
	tab := twoPartTable(t, "t", []int64{30, 20, 10, 3, 2, 1})
	ix, err := BuildIndex(tab, "c", patch.NearlySorted, BuildOptions{Kind: patch.Auto, Threshold: 0.0, Descending: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Descending() || ix.Cardinality() != 0 {
		t.Error("descending index should be clean on descending data")
	}
}

func TestBuildIndexKindRespected(t *testing.T) {
	tab := twoPartTable(t, "t", []int64{1, 1, 2, 3, 4, 5})
	for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
		name := "t"
		_ = name
		ix, err := BuildIndex(tab, "c", patch.NearlyUnique, BuildOptions{Kind: kind, Threshold: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Partition(0).Kind() != kind {
			t.Errorf("requested %v, built %v", kind, ix.Partition(0).Kind())
		}
	}
}

func TestAdvise(t *testing.T) {
	// Column "c" ascending and unique -> both proposals.
	tab, err := storage.NewTable("adv", storage.NewSchema(
		storage.Column{Name: "c", Typ: vector.Int64},
		storage.Column{Name: "noisy", Typ: vector.Int64},
	), 2)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		c := vector.New(vector.Int64, 0)
		noisy := vector.New(vector.Int64, 0)
		for i := 0; i < 200; i++ {
			c.AppendInt64(int64(p*200 + i))
			noisy.AppendInt64(int64((i*7919 + p) % 10)) // heavy duplicates, unsorted
		}
		if err := tab.AppendColumns(p, []*vector.Vector{c, noisy}); err != nil {
			t.Fatal(err)
		}
	}
	props := Advise(tab, AdvisorConfig{NUCThreshold: 0.05, NSCThreshold: 0.05})
	foundNUC, foundNSC := false, false
	for _, pr := range props {
		if pr.Column == "noisy" {
			t.Errorf("noisy column proposed: %+v", pr)
		}
		if pr.Column == "c" && pr.Constraint == patch.NearlyUnique {
			foundNUC = true
		}
		if pr.Column == "c" && pr.Constraint == patch.NearlySorted {
			foundNSC = true
			if pr.Descending {
				t.Error("ascending column proposed as descending")
			}
		}
		if pr.EstimatedBytes < 0 {
			t.Error("negative estimate")
		}
	}
	if !foundNUC || !foundNSC {
		t.Errorf("missing proposals for clean column: %+v", props)
	}
}

func TestAdviseDescending(t *testing.T) {
	tab, err := storage.NewTable("advd", storage.NewSchema(
		storage.Column{Name: "down", Typ: vector.Int64},
	), 1)
	if err != nil {
		t.Fatal(err)
	}
	v := vector.New(vector.Int64, 0)
	for i := 0; i < 100; i++ {
		v.AppendInt64(int64(1000 - i))
	}
	if err := tab.AppendColumns(0, []*vector.Vector{v}); err != nil {
		t.Fatal(err)
	}
	props := Advise(tab, AdvisorConfig{NUCThreshold: 0.0, NSCThreshold: 0.05, CheckDescending: true})
	found := false
	for _, pr := range props {
		if pr.Constraint == patch.NearlySorted && pr.Descending {
			found = true
		}
	}
	if !found {
		t.Errorf("descending column not proposed: %+v", props)
	}
}

func TestAdviseSampling(t *testing.T) {
	tab := twoPartTable(t, "s", []int64{1, 2, 3, 4, 5, 6})
	props := Advise(tab, AdvisorConfig{NUCThreshold: 0.1, NSCThreshold: 0.1, MaxRows: 2})
	if len(props) == 0 {
		t.Error("sampled advisor found nothing on a clean column")
	}
}

func TestDefaultAdvisorConfig(t *testing.T) {
	cfg := DefaultAdvisorConfig()
	if cfg.NUCThreshold != 0.1 || cfg.NSCThreshold != 0.1 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
}

// BenchmarkNUCBuild creates a NUC index over 200 k rows in four partitions
// with 5 % duplicated values, on a BIGINT column (the typed sharded path)
// and on the same values as email-like strings (Table I's column type).
func BenchmarkNUCBuild(b *testing.B) {
	const rows, parts = 200_000, 4
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i)
		if rng.Intn(20) == 0 {
			keys[i] = int64(rng.Intn(rows / 100))
		}
	}
	for _, typ := range []vector.Type{vector.Int64, vector.String} {
		tab, err := storage.NewTable("t", storage.NewSchema(storage.Column{Name: "c", Typ: typ}), parts)
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < parts; p++ {
			v := vector.New(typ, rows/parts)
			for _, k := range keys[p*rows/parts : (p+1)*rows/parts] {
				if typ == vector.String {
					v.AppendString(fmt.Sprintf("customer%08d@example.org", k))
				} else {
					v.AppendInt64(k)
				}
			}
			if err := tab.AppendColumns(p, []*vector.Vector{v}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(typ.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildIndex(tab, "c", patch.NearlyUnique, BuildOptions{Kind: patch.Auto, Threshold: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
