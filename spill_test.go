package patchindex

import (
	"strings"
	"testing"

	"patchindex/internal/vector"
)

// newSpillEngine loads 200 000 Int64 rows (1.6 MB of keys) into one
// partition each of t(v) and d(v), under a 64 MiB spill limit.
// A scan batch is a view whose capacity runs to the end of the partition's
// array, so pricing a batch by capacity would charge the table many times
// over.
func newSpillEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{SpillBytes: 64 << 20, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	load := func(table string, n int) {
		mustExec(t, e, "CREATE TABLE "+table+" (v BIGINT)")
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(n - i)
		}
		if err := e.LoadColumns(table, 0, []*vector.Vector{vector.NewFromInt64(vals)}); err != nil {
			t.Fatal(err)
		}
	}
	load("t", 200_000)
	load("d", 200_000)
	return e
}

// TestSortSpillOrderByUnderLimit: an ORDER BY over 1.6 MB of keys stays in
// memory under a 64 MiB limit.
func TestSortSpillOrderByUnderLimit(t *testing.T) {
	e := newSpillEngine(t)
	out := mustExec(t, e, "EXPLAIN ANALYZE SELECT v FROM t ORDER BY v").Message
	if !strings.Contains(out, "sorted_rows=200000") {
		t.Fatalf("no Sort over 200000 rows:\n%s", out)
	}
	if strings.Contains(out, "spilled_runs=") {
		t.Errorf("1.6 MB sort spilled under a 64 MiB limit:\n%s", out)
	}
}

// TestHashJoinGraceBuildUnderLimit: a 200 000-row hash build (1.6 MB of
// keys) stays in memory under a 64 MiB limit.
func TestHashJoinGraceBuildUnderLimit(t *testing.T) {
	e := newSpillEngine(t)
	out := mustExec(t, e, "EXPLAIN ANALYZE SELECT COUNT(*) FROM d JOIN t ON d.v = t.v").Message
	if !strings.Contains(out, "build_rows=200000") {
		t.Fatalf("no hash build over 200000 rows:\n%s", out)
	}
	if strings.Contains(out, "spilled_bytes=") {
		t.Errorf("1.6 MB hash build spilled under a 64 MiB limit:\n%s", out)
	}
}

// TestHashJoinGraceReportsPartitions: a hash build past the spill limit
// goes Grace, and EXPLAIN ANALYZE, which renders after Close has released
// the spill runs, still shows the partition count next to the spilled
// bytes.
func TestHashJoinGraceReportsPartitions(t *testing.T) {
	e, err := New(Config{SpillBytes: 16 << 10, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for _, table := range []string{"t", "d"} {
		mustExec(t, e, "CREATE TABLE "+table+" (v BIGINT)")
		vals := make([]int64, 20_000)
		for i := range vals {
			vals[i] = int64(i)
		}
		if err := e.LoadColumns(table, 0, []*vector.Vector{vector.NewFromInt64(vals)}); err != nil {
			t.Fatal(err)
		}
	}
	out := mustExec(t, e, "EXPLAIN ANALYZE SELECT COUNT(*) FROM d JOIN t ON d.v = t.v").Message
	if !strings.Contains(out, "grace_partitions=16 spilled_bytes=") || strings.Contains(out, "spilled_bytes=0") {
		t.Fatalf("Grace join does not report 16 partitions beside nonzero spilled bytes:\n%s", out)
	}
}
