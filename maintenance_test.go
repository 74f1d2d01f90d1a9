package patchindex

import (
	"fmt"
	"strings"
	"testing"

	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// indexUnderTest returns the PatchIndex with constraint c on table.column,
// the table and the column's position, after checking that every partition's
// patch set spans exactly the partition's rows.
func indexUnderTest(t *testing.T, e *Engine, table, column string, c patch.Constraint) (*patch.Index, *storage.Table, int) {
	t.Helper()
	ix := e.Catalog().Lookup(table, column, c)
	if ix == nil {
		t.Fatalf("no %s PatchIndex on %s.%s", c, table, column)
	}
	tab, err := e.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < tab.NumPartitions(); p++ {
		if got, want := ix.Partition(p).NumRows(), tab.Partition(p).NumRows(); got != want {
			t.Errorf("%s.%s partition %d: patch set spans %d rows, partition has %d", table, column, p, got, want)
		}
	}
	return ix, tab, tab.Schema().ColumnIndex(column)
}

// verifyNUC checks the NUC contract on table-minus-patches: no two non-patch
// non-NULL values are equal, and no non-patch value equals a patch value.
func verifyNUC(t *testing.T, e *Engine, table, column string) {
	t.Helper()
	ix, tab, col := indexUnderTest(t, e, table, column, patch.NearlyUnique)
	clean := map[vector.Value]bool{}
	patched := map[vector.Value]bool{}
	for p := 0; p < tab.NumPartitions(); p++ {
		v, set := tab.Partition(p).Column(col), ix.Partition(p)
		for i := 0; i < v.Len(); i++ {
			if v.IsNull(i) {
				continue
			}
			val := v.Value(i)
			if set.Contains(uint64(i)) {
				patched[val] = true
				continue
			}
			if clean[val] {
				t.Errorf("NUC %s.%s: non-patch value %v occurs twice", table, column, val)
				return
			}
			clean[val] = true
		}
	}
	for val := range clean {
		if patched[val] {
			t.Errorf("NUC %s.%s: non-patch value %v equals a patch value", table, column, val)
			return
		}
	}
}

// verifyNSC checks the NSC contract on table-minus-patches: the non-patch
// non-NULL values of every partition are ordered in the index's direction.
func verifyNSC(t *testing.T, e *Engine, table, column string) {
	t.Helper()
	ix, tab, col := indexUnderTest(t, e, table, column, patch.NearlySorted)
	for p := 0; p < tab.NumPartitions(); p++ {
		v, set := tab.Partition(p).Column(col), ix.Partition(p)
		var last vector.Value
		for i, seen := 0, false; i < v.Len(); i++ {
			if v.IsNull(i) || set.Contains(uint64(i)) {
				continue
			}
			val := v.Value(i)
			c := val.Compare(last)
			if ix.Descending() {
				c = -c
			}
			if seen && c < 0 {
				t.Errorf("NSC %s.%s partition %d: non-patch row %d (%v) breaks the order after %v", table, column, p, i, val, last)
				return
			}
			last, seen = val, true
		}
	}
}

// reopen closes e and opens a new engine on the same data directory.
func reopen(t *testing.T, e *Engine, dir string) *Engine {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return newDurableEngine(t, dir, 0)
}

// writeRow is one row for data(u, s, payload); null makes u and s NULL.
type writeRow struct {
	u, s int64
	null bool
}

// maintWriteRows returns round k of appended rows: duplicates of existing u
// values (retro-patches), NULLs, fresh unique values, and s values that
// mostly continue the order but sometimes fall far behind it.
func maintWriteRows(uniq []int64, k int) []writeRow {
	rows := make([]writeRow, 60)
	for i := range rows {
		r := writeRow{u: int64(10_000_000*k + i), s: int64(1_000_000*k + i)}
		if i%5 == 0 {
			r.u = uniq[(i*37+k)%len(uniq)]
		}
		if i%7 == 0 {
			r.s = int64(i)
		}
		r.null = i%13 == 0
		rows[i] = r
	}
	return rows
}

// columnsByPartition spreads rows over two partitions as data's column
// vectors, row i going to partition i%2.
func columnsByPartition(rows []writeRow) [2][]*vector.Vector {
	var out [2][]*vector.Vector
	for p := range out {
		out[p] = []*vector.Vector{vector.New(vector.Int64, len(rows)), vector.New(vector.Int64, len(rows)), vector.New(vector.Float64, len(rows))}
	}
	for i, r := range rows {
		cols := out[i%2]
		if r.null {
			cols[0].AppendNull()
			cols[1].AppendNull()
		} else {
			cols[0].AppendInt64(r.u)
			cols[1].AppendInt64(r.s)
		}
		cols[2].AppendFloat64(1)
	}
	return out
}

// maintWritePaths are the engine's entry points for adding rows to data.
var maintWritePaths = []struct {
	name  string
	write func(t *testing.T, e *Engine, rows []writeRow)
}{
	{"Append", func(t *testing.T, e *Engine, rows []writeRow) {
		for p, cols := range columnsByPartition(rows) {
			if err := e.Append("data", p, cols); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"LoadColumns", func(t *testing.T, e *Engine, rows []writeRow) {
		for p, cols := range columnsByPartition(rows) {
			if err := e.LoadColumns("data", p, cols); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"INSERT", func(t *testing.T, e *Engine, rows []writeRow) {
		vals := make([]string, len(rows))
		for i, r := range rows {
			vals[i] = fmt.Sprintf("(%d, %d, 1.0)", r.u, r.s)
			if r.null {
				vals[i] = "(NULL, NULL, 1.0)"
			}
		}
		mustExec(t, e, "INSERT INTO data VALUES "+strings.Join(vals, ", "))
	}},
	{"COPY", func(t *testing.T, e *Engine, rows []writeRow) {
		var sb strings.Builder
		for _, r := range rows {
			if r.null {
				sb.WriteString(",,1.0\n")
			} else {
				fmt.Fprintf(&sb, "%d,%d,1.0\n", r.u, r.s)
			}
		}
		mustExec(t, e, "COPY data FROM '"+writeCSV(t, sb.String())+"'")
	}},
}

// TestAppendMaintainsIndexes: every write path keeps a NUC or NSC PatchIndex
// of either kind exact — table minus patches satisfies the constraint and
// rewritten plans return what unrewritten plans return — live, after
// reopening from the WAL alone, and after reopening a checkpoint followed by
// more writes.
func TestAppendMaintainsIndexes(t *testing.T) {
	queries := []string{
		"SELECT DISTINCT u FROM data",
		"SELECT COUNT(DISTINCT u) FROM data",
		"SELECT s FROM data ORDER BY s",
	}
	for _, path := range maintWritePaths {
		for _, c := range []patch.Constraint{patch.NearlyUnique, patch.NearlySorted} {
			for _, kind := range []string{"IDENTIFIER", "BITMAP"} {
				t.Run(fmt.Sprintf("%s/%s/%s", path.name, c, kind), func(t *testing.T) {
					column, verify, ddl := "u", verifyNUC, "UNIQUE"
					if c == patch.NearlySorted {
						column, verify, ddl = "s", verifyNSC, "SORTED"
					}
					dir := t.TempDir()
					e := newDurableEngine(t, dir, 0)
					defer func() { e.Close() }()
					uniq, _ := loadExceptionTable(t, e, "data", 600, 2, 0.05, 5)
					mustExec(t, e, fmt.Sprintf("CREATE PATCHINDEX ON data(%s) %s THRESHOLD 0.5 KIND %s", column, ddl, kind))
					check := func(state string, rows int64) {
						t.Helper()
						if got := mustExec(t, e, "SELECT COUNT(*) FROM data").Rows[0][0].I64; got != rows {
							t.Fatalf("%s: COUNT(*) = %d, want %d", state, got, rows)
						}
						verify(t, e, "data", column)
						fired := e.mRewFired.Value()
						sameWithRewrites(t, e, queries...)
						if e.mRewFired.Value() == fired {
							t.Errorf("%s: no rewrite fired, so the index went unchecked", state)
						}
					}

					path.write(t, e, maintWriteRows(uniq, 1))
					check("live", 660)
					e = reopen(t, e, dir)
					check("reopened from the WAL", 660)
					mustExec(t, e, "CHECKPOINT")
					path.write(t, e, maintWriteRows(uniq, 2))
					check("live after CHECKPOINT", 720)
					e = reopen(t, e, dir)
					check("reopened after CHECKPOINT", 720)
				})
			}
		}
	}

	// The INSERT reproducer: duplicates of non-patch values must become
	// patches, or DISTINCT through the index returns a value twice.
	t.Run("INSERT/duplicates", func(t *testing.T) {
		dir := t.TempDir()
		e := newDurableEngine(t, dir, 0)
		defer func() { e.Close() }()
		mustExec(t, e, "CREATE TABLE t (f BIGINT, g BIGINT)")
		mustExec(t, e, "INSERT INTO t VALUES (0, 1), (0, 2), (1, 3), (2, 4)")
		mustExec(t, e, "CREATE PATCHINDEX ON t(f) UNIQUE THRESHOLD 0.5")
		mustExec(t, e, "INSERT INTO t VALUES (1, 5), (3, 6)")
		for _, state := range []string{"live", "reopened"} {
			if state == "reopened" {
				e = reopen(t, e, dir)
			}
			verifyNUC(t, e, "t", "f")
			sameWithRewrites(t, e, "SELECT DISTINCT f FROM t", "SELECT COUNT(DISTINCT f) FROM t")
			if got := mustExec(t, e, "SELECT COUNT(DISTINCT f) FROM t").Rows[0][0].I64; got != 4 {
				t.Errorf("%s: COUNT(DISTINCT f) = %d, want 4", state, got)
			}
		}
	})
}

// TestAppendWithoutIndexes: Append on an unindexed table is a plain append.
func TestAppendWithoutIndexes(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE plain (v BIGINT) PARTITIONS 2")
	if err := e.Append("plain", 1, []*vector.Vector{vector.NewFromInt64([]int64{1, 2, 3})}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM plain")
	if res.Rows[0][0].I64 != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if err := e.Append("nosuch", 0, nil); err == nil {
		t.Error("append to unknown table must fail")
	}
}

// TestAppendMaintainerInvalidation: the cached maintenance state must follow
// every change of a table's index set or of the table itself — index DDL,
// DROP and re-CREATE of the table, and the same DDL replayed from the WAL.
func TestAppendMaintainerInvalidation(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (v BIGINT)")
	if err := e.Append("t", 0, []*vector.Vector{vector.NewFromInt64([]int64{1, 2, 3})}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE PATCHINDEX ON t(v) UNIQUE THRESHOLD 0.5")
	// This append must be classified against the new index.
	if err := e.Append("t", 0, []*vector.Vector{vector.NewFromInt64([]int64{2})}); err != nil {
		t.Fatal(err)
	}
	ix := e.Catalog().Index("t", "v")
	if ix.Cardinality() != 2 {
		t.Errorf("cardinality after invalidated append = %d, want 2", ix.Cardinality())
	}
	// Dropping and re-creating re-discovers from scratch: same answer.
	mustExec(t, e, "DROP PATCHINDEX ON t(v)")
	mustExec(t, e, "CREATE PATCHINDEX ON t(v) UNIQUE THRESHOLD 0.5")
	if got := e.Catalog().Index("t", "v").Cardinality(); got != 2 {
		t.Errorf("re-discovered cardinality = %d, want 2", got)
	}

	ints := func(vals ...int64) []*vector.Vector {
		return []*vector.Vector{vector.NewFromInt64(vals)}
	}

	// A table dropped and re-created under the same name is a new table: an
	// append must land in it, not in the cached state of the old one.
	t.Run("DROP and CREATE TABLE", func(t *testing.T) {
		e := newTestEngine(t)
		mustExec(t, e, "CREATE TABLE r (v BIGINT)")
		if err := e.Append("r", 0, ints(1, 2, 3)); err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, "DROP TABLE r")
		mustExec(t, e, "CREATE TABLE r (v BIGINT)")
		if err := e.Append("r", 0, ints(5, 6)); err != nil {
			t.Fatal(err)
		}
		if got := mustExec(t, e, "SELECT COUNT(*) FROM r").Rows[0][0].I64; got != 2 {
			t.Fatalf("COUNT(*) after re-create and append = %d, want 2", got)
		}
		mustExec(t, e, "CREATE PATCHINDEX ON r(v) UNIQUE THRESHOLD 0.5")
		mustExec(t, e, "DROP TABLE r")
		mustExec(t, e, "CREATE TABLE r (v BIGINT)")
		if err := e.Append("r", 0, ints(1, 2, 3, 7, 7)); err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, "CREATE PATCHINDEX ON r(v) UNIQUE THRESHOLD 0.5")
		if err := e.Append("r", 0, ints(8, 8)); err != nil {
			t.Fatal(err)
		}
		verifyNUC(t, e, "r", "v")
		if got := e.Catalog().Index("r", "v").Cardinality(); got != 4 {
			t.Errorf("cardinality = %d, want 4", got)
		}
		sameWithRewrites(t, e, "SELECT DISTINCT v FROM r", "SELECT COUNT(DISTINCT v) FROM r")
	})

	// LoadColumns after CREATE PATCHINDEX maintains the index like Append.
	t.Run("LoadColumns after CREATE PATCHINDEX", func(t *testing.T) {
		dir := t.TempDir()
		e := newDurableEngine(t, dir, 0)
		defer func() { e.Close() }()
		mustExec(t, e, "CREATE TABLE t (s BIGINT) PARTITIONS 1")
		if err := e.LoadColumns("t", 0, ints(1, 2, 3, 4, 5, 6)); err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, "CREATE PATCHINDEX ON t(s) SORTED")
		if err := e.LoadColumns("t", 0, ints(0, 9, 7)); err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"live", "reopened"} {
			if state == "reopened" {
				e = reopen(t, e, dir)
			}
			verifyNSC(t, e, "t", "s")
			sameWithRewrites(t, e, "SELECT s FROM t ORDER BY s")
		}
	})

	// WAL replay: the first replayed append caches state for a table with no
	// index; the replayed CREATE PATCHINDEX must not leave it in use.
	t.Run("replay after CREATE PATCHINDEX", func(t *testing.T) {
		dir := t.TempDir()
		e := newDurableEngine(t, dir, 0)
		defer func() { e.Close() }()
		mustExec(t, e, "CREATE TABLE t (s BIGINT) PARTITIONS 1")
		if err := e.LoadColumns("t", 0, ints(1, 2, 3, 4)); err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, "CREATE PATCHINDEX ON t(s) SORTED")
		if err := e.Append("t", 0, ints(0, 9, 7)); err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"live", "reopened"} {
			if state == "reopened" {
				e = reopen(t, e, dir)
			}
			verifyNSC(t, e, "t", "s")
			sameWithRewrites(t, e, "SELECT s FROM t ORDER BY s")
		}
	})
}
