// Benchmarks for morsel-driven intra-query parallelism. Run with varying
// core counts to measure scaling:
//
//	go test -bench 'BenchmarkParallel' -cpu 1,4,8 .
//
// The query benchmarks fix the requested degree at the partition count; the
// exchange bounds its actual worker pool at GOMAXPROCS, so the -cpu sweep is
// what varies the real parallelism. The serial sub-benchmarks pin
// Parallelism=1 as the baseline the speedup is computed against (see
// EXPERIMENTS.md; cmd/patchbench -exp parallel emits the same comparison as
// JSON). BenchmarkParallelDiscovery names its worker counts itself.
package patchindex

import (
	"fmt"
	"testing"

	"patchindex/internal/datagen"
	"patchindex/internal/discovery"
	"patchindex/internal/patch"
)

func benchParallelEngine(b *testing.B) *Engine {
	b.Helper()
	e := benchEngine(b)
	t, err := datagen.LoadCustom("data", benchCustomRows, benchPartitions, 0.05, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Catalog().AddTable(t); err != nil {
		b.Fatal(err)
	}
	return e
}

func drainWith(b *testing.B, e *Engine, q string, parallelism int) {
	b.Helper()
	if _, err := e.DrainWith(q, ExecOptions{Parallelism: parallelism}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParallelScan drains a filtered projection over all partitions.
func BenchmarkParallelScan(b *testing.B) {
	e := benchParallelEngine(b)
	q := fmt.Sprintf("SELECT u FROM data WHERE u > %d", benchCustomRows/2)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drainWith(b, e, q, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drainWith(b, e, q, benchPartitions)
		}
	})
}

// BenchmarkParallelAgg runs partial aggregation with a merge: the grouping
// shape of the paper's discovery queries.
func BenchmarkParallelAgg(b *testing.B) {
	e := benchParallelEngine(b)
	for _, q := range []struct{ name, sql string }{
		{"count-distinct", "SELECT COUNT(DISTINCT u) FROM data"},
		{"group-by", "SELECT payload, COUNT(*), SUM(u) FROM data GROUP BY payload"},
	} {
		b.Run(q.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainWith(b, e, q.sql, 1)
			}
		})
		b.Run(q.name+"/parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainWith(b, e, q.sql, benchPartitions)
			}
		})
	}
}

// BenchmarkParallelDiscovery measures discovery.BuildIndex (discovery plus
// patch-set construction) at 200 k and 1 M rows with 1 and 2 workers, and
// reports the cost per row: flat across the two sizes means the build stays
// linear once its hash table has outgrown the cache.
func BenchmarkParallelDiscovery(b *testing.B) {
	for _, rows := range []int{200_000, 1_000_000} {
		tab, err := datagen.LoadCustom("data", rows, benchPartitions, 0.05, 0.05, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name       string
			constraint patch.Constraint
			column     string
		}{
			{"nuc", patch.NearlyUnique, "u"},
			{"nsc", patch.NearlySorted, "s"},
		} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/rows=%d/workers=%d", c.name, rows, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := discovery.BuildIndex(tab, c.column, c.constraint, discovery.BuildOptions{
							Kind: patch.Auto, Threshold: 1.0, Parallelism: workers,
						}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
				})
			}
		}
	}
}
