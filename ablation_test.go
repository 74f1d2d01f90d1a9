package patchindex

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"patchindex/internal/datagen"
	"patchindex/internal/discovery"
	"patchindex/internal/exec"
	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

// Ablation benchmarks for the design choices called out in DESIGN.md:
// SMA-based scan-range pruning, parallel partition scans, and the placement
// of PatchSelect on top of range-restricted scans.

// BenchmarkAblationScanRanges measures a selective range query with and
// without SMA block pruning.
func BenchmarkAblationScanRanges(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "pruning-on"
		if disable {
			name = "pruning-off"
		}
		b.Run(name, func(b *testing.B) {
			e, err := New(Config{DefaultPartitions: benchPartitions, DisableScanRanges: disable})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if _, err := e.Exec("CREATE TABLE t (v BIGINT, w BIGINT)"); err != nil {
				b.Fatal(err)
			}
			per := benchCustomRows / benchPartitions
			for p := 0; p < benchPartitions; p++ {
				v := vector.New(vector.Int64, per)
				w := vector.New(vector.Int64, per)
				for i := 0; i < per; i++ {
					v.AppendInt64(int64(p*per + i)) // globally block-clustered
					w.AppendInt64(int64(i % 97))
				}
				if err := e.LoadColumns("t", p, []*vector.Vector{v, w}); err != nil {
					b.Fatal(err)
				}
			}
			q := fmt.Sprintf("SELECT SUM(w) FROM t WHERE v >= %d AND v < %d",
				benchCustomRows/2, benchCustomRows/2+10_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.DrainWith(q, ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallel measures the parallel partition exchange against
// sequential execution for a patched count-distinct.
func BenchmarkAblationParallel(b *testing.B) {
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			parallelism := 0
			if parallel {
				parallelism = 2 * runtime.GOMAXPROCS(0)
			}
			e, err := New(Config{DefaultPartitions: benchPartitions, Parallelism: parallelism})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			tb, err := datagen.LoadCustom("data", benchCustomRows, benchPartitions, 0.05, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Catalog().AddTable(tb); err != nil {
				b.Fatal(err)
			}
			if _, err := e.CreatePatchIndex("data", "u", patch.NearlyUnique,
				discovery.BuildOptions{Kind: patch.Auto, Threshold: 1}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.DrainWith("SELECT COUNT(DISTINCT u) FROM data", ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDiscovery isolates the two discovery algorithms (the
// index-creation building blocks of Figure 6).
func BenchmarkAblationDiscovery(b *testing.B) {
	uniqueCol := datagen.GenUniqueColumn(datagen.UniqueConfig{Rows: benchCustomRows, Rate: 0.05, Seed: 1})
	sortedCol := datagen.GenSortedColumn(datagen.SortedConfig{Rows: benchCustomRows, Rate: 0.05, Seed: 2})
	b.Run("nuc-hash-grouping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.DiscoverNUC(uniqueCol)
		}
	})
	b.Run("nsc-longest-sorted-subsequence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.DiscoverNSC(sortedCol, false)
		}
	})
}

// BenchmarkAblationPatchSelect isolates the PatchSelect operator itself —
// identifier merge (Algorithm 1) vs. bitmap probing, in both selection modes
// and at two exception rates — by draining a bare Scan→PatchSelect pipeline.
func BenchmarkAblationPatchSelect(b *testing.B) {
	for _, rate := range []float64{0.01, 0.3} {
		tb, err := datagen.LoadCustom("data", benchCustomRows, 1, rate, 0, 3)
		if err != nil {
			b.Fatal(err)
		}
		colIdx := tb.Schema().ColumnIndex("u")
		res := discovery.DiscoverNUC(tb.Partition(0).Column(colIdx))
		for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
			set, err := patch.Build(kind, res.Patches, res.NumRows)
			if err != nil {
				b.Fatal(err)
			}
			for _, mode := range []exec.SelectMode{exec.ExcludePatches, exec.UsePatches} {
				b.Run(fmt.Sprintf("rate=%.0f%%/%s/%s", 100*rate, kind, mode), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						sc, err := exec.NewScan(tb, 0, []int{colIdx}, nil)
						if err != nil {
							b.Fatal(err)
						}
						ps, err := exec.NewPatchSelect(sc, set, mode)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := exec.Drain(ps); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkAblationRecovery compares the two recovery designs of Section V:
// re-discovery from data (the paper's default) vs. loading materialized
// index payloads from disk (the discussed alternative).
func BenchmarkAblationRecovery(b *testing.B) {
	dir := b.TempDir()
	idxDir := filepath.Join(dir, "idx")
	if err := os.MkdirAll(idxDir, 0o755); err != nil {
		b.Fatal(err)
	}
	tb, err := datagen.LoadCustom("data", benchCustomRows, benchPartitions, 0.05, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Build + materialize once.
	ix, err := discovery.BuildIndex(tb, "u", patch.NearlyUnique,
		discovery.BuildOptions{Kind: patch.Auto, Threshold: 1})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(idxDir, "data.u.nuc.pidx")
	if err := ix.Save(path); err != nil {
		b.Fatal(err)
	}
	b.Run("rediscovery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := discovery.BuildIndex(tb, "u", patch.NearlyUnique,
				discovery.BuildOptions{Kind: patch.Auto, Threshold: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialized-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := patch.Load(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
