package patchindex

import (
	"fmt"
	"strings"
	"testing"

	"patchindex/internal/vector"
)

// loadClusteredTable creates a table whose partition p holds k in
// [p*per, (p+1)*per) — the layout zone maps are built for — while v cycles
// 0..96 inside every partition.
func loadClusteredTable(t testing.TB, e *Engine, parts, per int) {
	t.Helper()
	mustExec(t, e, fmt.Sprintf("CREATE TABLE clustered (k BIGINT, v BIGINT) PARTITIONS %d", parts))
	for p := 0; p < parts; p++ {
		k := vector.New(vector.Int64, per)
		v := vector.New(vector.Int64, per)
		for i := 0; i < per; i++ {
			k.AppendInt64(int64(p*per + i))
			v.AppendInt64(int64(i % 97))
		}
		if err := e.LoadColumns("clustered", p, []*vector.Vector{k, v}); err != nil {
			t.Fatal(err)
		}
	}
}

func prunedCount(t *testing.T, explain string) int {
	t.Helper()
	const key = "partitions_pruned="
	i := strings.Index(explain, key)
	if i < 0 {
		return 0
	}
	var n int
	if _, err := fmt.Sscanf(explain[i+len(key):], "%d", &n); err != nil {
		t.Fatalf("cannot parse %q: %v", explain[i:], err)
	}
	return n
}

// TestZoneMapPruningEndToEnd checks the whole chain: zone maps built on
// load, partitions skipped at plan time, the counter surfaced by
// EXPLAIN ANALYZE, and identical results with pruning on, off, and across
// serial and parallel plans.
func TestZoneMapPruningEndToEnd(t *testing.T) {
	const parts, per = 4, 3000
	eOn, err := New(Config{DefaultPartitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	defer eOn.Close()
	eOff, err := New(Config{DefaultPartitions: parts, DisableScanRanges: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eOff.Close()
	loadClusteredTable(t, eOn, parts, per)
	loadClusteredTable(t, eOff, parts, per)

	// The catalog introspection must show tight per-partition bounds.
	zms, err := eOn.Catalog().ZoneMaps("clustered")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, zm := range zms {
		if zm.Column != "k" {
			continue
		}
		found++
		lo, hi := int64(zm.Partition*per), int64((zm.Partition+1)*per-1)
		if !zm.Entry.Valid || zm.Entry.Min.I64 != lo || zm.Entry.Max.I64 != hi || zm.Entry.Rows != per {
			t.Fatalf("zone map for partition %d = %+v, want [%d,%d]", zm.Partition, zm.Entry, lo, hi)
		}
	}
	if found != parts {
		t.Fatalf("ZoneMaps returned %d entries for k, want %d", found, parts)
	}

	queries := []string{
		fmt.Sprintf("SELECT COUNT(*) FROM clustered WHERE k < %d", per),
		fmt.Sprintf("SELECT COUNT(*), MIN(v), MAX(k) FROM clustered WHERE k >= %d AND k <= %d", 2*per, 2*per+100),
		fmt.Sprintf("SELECT v FROM clustered WHERE k >= %d AND k < %d AND v > 89 ORDER BY v LIMIT 50", per, per+500),
		fmt.Sprintf("SELECT COUNT(*) FROM clustered WHERE k > %d", parts*per+1000), // prunes everything
		"SELECT COUNT(*) FROM clustered WHERE v > 89",                              // prunes nothing
	}
	for _, q := range queries {
		var ref string
		for i, run := range []struct {
			name string
			e    *Engine
			opts ExecOptions
		}{
			{"pruned/serial", eOn, ExecOptions{}},
			{"pruned/parallel", eOn, ExecOptions{Parallelism: 4}},
			{"unpruned/serial", eOff, ExecOptions{}},
			{"unpruned/parallel", eOff, ExecOptions{Parallelism: 4}},
			{"pruned/interpreted", eOn, ExecOptions{DisableKernels: true}},
		} {
			res, err := run.e.ExecWith(q, run.opts)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q, run.name, err)
			}
			got := fmt.Sprint(res.Rows)
			if i == 0 {
				ref = got
			} else if got != ref {
				t.Fatalf("%s: %s disagrees\n  ref: %.200s\n  got: %.200s", q, run.name, ref, got)
			}
		}
	}

	// EXPLAIN ANALYZE surfaces the pruning decision: a single-partition key
	// range skips the other three partitions before a morsel is scheduled.
	q := fmt.Sprintf("SELECT COUNT(*) FROM clustered WHERE k >= 0 AND k <= %d", per-1)
	res, err := eOn.Exec("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	if got := prunedCount(t, res.Message); got != parts-1 {
		t.Fatalf("partitions_pruned = %d, want %d\n%s", got, parts-1, res.Message)
	}
	res, err = eOn.ExecWith("EXPLAIN ANALYZE "+q, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := prunedCount(t, res.Message); got != parts-1 {
		t.Fatalf("parallel partitions_pruned = %d, want %d\n%s", got, parts-1, res.Message)
	}
	// With pruning disabled the counter must stay silent.
	res, err = eOff.Exec("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	if got := prunedCount(t, res.Message); got != 0 {
		t.Fatalf("unpruned engine reports partitions_pruned = %d\n%s", got, res.Message)
	}
}

// TestKernelCountersInExplain: plans over kernel-friendly filters must report
// kernel batches in EXPLAIN ANALYZE, and must not when kernels are disabled.
func TestKernelCountersInExplain(t *testing.T) {
	e, err := New(Config{DefaultPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadClusteredTable(t, e, 2, 3000)

	const q = "EXPLAIN ANALYZE SELECT v FROM clustered WHERE v > 89"
	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "kernel=") {
		t.Fatalf("kernel counter missing from EXPLAIN ANALYZE:\n%s", res.Message)
	}
	res, err = e.ExecWith(q, ExecOptions{DisableKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Message, "kernel=") {
		t.Fatalf("DisableKernels still reports kernel batches:\n%s", res.Message)
	}
}

const (
	kernelBenchParts = 4
	kernelBenchPer   = 64 * 1024
	kernelBenchRows  = kernelBenchParts * kernelBenchPer
)

func kernelBenchEngine(b *testing.B, disableScanRanges bool) *Engine {
	b.Helper()
	e, err := New(Config{DefaultPartitions: kernelBenchParts, DisableScanRanges: disableScanRanges})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	loadClusteredTable(b, e, kernelBenchParts, kernelBenchPer)
	return e
}

// BenchmarkFilterKernel streams a ~7% selective filter over every block of
// the clustered table (v cycles 0..96, so neither SMA nor zone maps prune
// anything): compiled typed kernels versus the interpreted evaluator.
// Run with -cpu 1,4 to see the interaction with morsel parallelism.
func BenchmarkFilterKernel(b *testing.B) {
	e := kernelBenchEngine(b, false)
	const q = "SELECT v FROM clustered WHERE v > 89"
	for _, bc := range []struct {
		name string
		opts ExecOptions
	}{
		{"interpreted", ExecOptions{DisableKernels: true}},
		{"kernel", ExecOptions{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(kernelBenchRows * 8) // one int64 column scanned per row
			for i := 0; i < b.N; i++ {
				if _, err := e.DrainWith(q, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(kernelBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkZoneMapPrune runs a key-range aggregate that covers exactly one
// partition: with zone maps the other partitions are skipped before a morsel
// is scheduled, without them every partition is streamed and filtered.
func BenchmarkZoneMapPrune(b *testing.B) {
	q := fmt.Sprintf("SELECT COUNT(*) FROM clustered WHERE k >= 0 AND k <= %d", kernelBenchPer-1)
	for _, bc := range []struct {
		name    string
		noPrune bool
	}{
		{"pruned", false},
		{"unpruned", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := kernelBenchEngine(b, bc.noPrune)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.DrainWith(q, ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(kernelBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
