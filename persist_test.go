package patchindex

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

func newDurableEngine(t *testing.T, dir string, cacheBytes int64) *Engine {
	t.Helper()
	e, err := New(Config{DataDir: dir, CacheBytes: cacheBytes, DefaultPartitions: 2})
	if err != nil {
		t.Fatalf("New(DataDir=%s): %v", dir, err)
	}
	return e
}

// scanAll reads every row of a table ordered by id and returns "id|name" lines.
func scanAll(t *testing.T, e *Engine, table string) []string {
	t.Helper()
	res, err := e.Exec(fmt.Sprintf("SELECT id, name FROM %s ORDER BY id", table))
	if err != nil {
		t.Fatalf("scan %s: %v", table, err)
	}
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		name := "NULL"
		if !r[1].Null {
			name = r[1].Str
		}
		lines[i] = fmt.Sprintf("%d|%s", r[0].I64, name)
	}
	return lines
}

func insertRows(t *testing.T, e *Engine, table string, lo, hi int) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
	for i := lo; i < hi; i++ {
		if i > lo {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'name_%04d')", i, i)
	}
	mustExec(t, e, sb.String())
}

// TestDurableRoundTrip is the crash-restart e2e: ingest, checkpoint, ingest
// more, reopen, verify the data survived byte-for-byte and that recovery
// replayed ONLY the post-checkpoint WAL suffix.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, 0)
	mustExec(t, e, "CREATE TABLE emp (id BIGINT, name VARCHAR)")
	insertRows(t, e, "emp", 0, 500)
	mustExec(t, e, "CREATE PATCHINDEX ON emp(id) SORTED")
	mustExec(t, e, "CHECKPOINT")
	insertRows(t, e, "emp", 500, 620) // post-checkpoint suffix: 120 rows
	want := scanAll(t, e, "emp")
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: manifest restores the checkpointed 500 rows lazily from
	// segments; the WAL replays exactly the 120-row suffix.
	e2 := newDurableEngine(t, dir, 0)
	defer e2.Close()
	rec := e2.Recovery()
	if rec.ManifestTables != 1 {
		t.Errorf("ManifestTables = %d, want 1", rec.ManifestTables)
	}
	if rec.ManifestIndexes != 1 {
		t.Errorf("ManifestIndexes = %d, want 1", rec.ManifestIndexes)
	}
	if rec.ReplayedRows != 120 {
		t.Errorf("ReplayedRows = %d, want 120 (suffix only)", rec.ReplayedRows)
	}
	if rec.ReplayedAppends == 0 {
		t.Errorf("expected append records in the replayed suffix")
	}
	got := scanAll(t, e2, "emp")
	if len(got) != len(want) {
		t.Fatalf("rows after reopen: %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %q want %q", i, got[i], want[i])
		}
	}
	if ix := e2.Catalog().Lookup("emp", "id", patch.NearlySorted); ix == nil {
		t.Errorf("PatchIndex on emp.id not restored")
	}
}

// TestDurableNoCheckpoint reopens a data dir that never checkpointed: the
// whole history (including CREATE TABLE) must come back from the WAL alone.
func TestDurableNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, 0)
	mustExec(t, e, "CREATE TABLE ev (id BIGINT, name VARCHAR)")
	insertRows(t, e, "ev", 0, 64)
	want := scanAll(t, e, "ev")
	e.Close()

	e2 := newDurableEngine(t, dir, 0)
	defer e2.Close()
	if e2.Recovery().ManifestTables != 0 {
		t.Errorf("no checkpoint ran, yet manifest tables = %d", e2.Recovery().ManifestTables)
	}
	if e2.Recovery().ReplayedRows != 64 {
		t.Errorf("ReplayedRows = %d, want 64", e2.Recovery().ReplayedRows)
	}
	got := scanAll(t, e2, "ev")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("data mismatch after WAL-only recovery")
	}
}

// TestDurableDropTable checks DROP TABLE survives both the WAL and a
// checkpoint, and that the sweep removes the dropped table's segments.
func TestDurableDropTable(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, 0)
	mustExec(t, e, "CREATE TABLE a (id BIGINT, name VARCHAR)")
	mustExec(t, e, "CREATE TABLE b (id BIGINT, name VARCHAR)")
	insertRows(t, e, "a", 0, 10)
	insertRows(t, e, "b", 0, 10)
	mustExec(t, e, "CHECKPOINT")
	mustExec(t, e, "DROP TABLE a")
	e.Close()

	e2 := newDurableEngine(t, dir, 0)
	if _, err := e2.Exec("SELECT id FROM a"); err == nil {
		t.Errorf("table a should be gone after replayed DROP TABLE")
	}
	if got := scanAll(t, e2, "b"); len(got) != 10 {
		t.Errorf("table b rows = %d, want 10", len(got))
	}
	// The next checkpoint sweeps a's segments.
	mustExec(t, e2, "CHECKPOINT")
	ents, err := os.ReadDir(filepath.Join(dir, "segs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "a.p") {
			t.Errorf("orphan segment %s survived the sweep", ent.Name())
		}
	}
	e2.Close()
}

// TestDurableEvictionCorrectness runs scans under a cache budget far smaller
// than the table so columns continuously evict and reload from compressed
// segments; results must match the unlimited-cache engine exactly.
func TestDurableEvictionCorrectness(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, 0)
	mustExec(t, e, "CREATE TABLE big (id BIGINT, name VARCHAR)")
	cols := []*vector.Vector{vector.New(vector.Int64, 4096), vector.New(vector.String, 4096)}
	for i := 0; i < 4096; i++ {
		cols[0].AppendInt64(int64(i))
		cols[1].AppendString(fmt.Sprintf("v%d", i%97))
	}
	if err := e.LoadColumns("big", 0, cols); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CHECKPOINT")
	wantRes := mustExec(t, e, "SELECT COUNT(*), SUM(id) FROM big WHERE id >= 100")
	e.Close()

	// 4 KiB budget: nowhere near one column of 4096 rows.
	e2 := newDurableEngine(t, dir, 4096)
	defer e2.Close()
	for i := 0; i < 3; i++ {
		got := mustExec(t, e2, "SELECT COUNT(*), SUM(id) FROM big WHERE id >= 100")
		if got.Rows[0][0].I64 != wantRes.Rows[0][0].I64 || got.Rows[0][1].I64 != wantRes.Rows[0][1].I64 {
			t.Fatalf("pass %d: got %v want %v", i, got.Rows[0], wantRes.Rows[0])
		}
	}
	st := e2.Cache().Stats()
	if st.Misses == 0 {
		t.Errorf("expected cache misses under a 4KiB budget, stats: %+v", st)
	}
	if st.Evictions == 0 {
		t.Errorf("expected evictions under a 4KiB budget, stats: %+v", st)
	}
}

// TestCheckpointIdempotent runs CHECKPOINT twice in a row: the second one has
// nothing dirty and must flush zero partitions while rotating generations.
func TestCheckpointIdempotent(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, 0)
	defer e.Close()
	mustExec(t, e, "CREATE TABLE tt (id BIGINT, name VARCHAR)")
	insertRows(t, e, "tt", 0, 32)
	s1, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if s1.PartitionsFlushed == 0 {
		t.Errorf("first checkpoint flushed nothing")
	}
	s2, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if s2.PartitionsFlushed != 0 {
		t.Errorf("second checkpoint flushed %d partitions, want 0", s2.PartitionsFlushed)
	}
	if s2.Generation != s1.Generation+1 {
		t.Errorf("generation %d after %d", s2.Generation, s1.Generation)
	}
}

// TestDurableTornWALTail: a crash that tears the last WAL record loses that
// record only. The torn bytes are cut on open, so statements after the
// restart survive the next restart too.
func TestDurableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, 0)
	mustExec(t, e, "CREATE TABLE ev (id BIGINT, name VARCHAR)")
	insertRows(t, e, "ev", 0, 40)
	e.Close()
	// A torn record: a header announcing 100 payload bytes, then 3 of them.
	walPath := filepath.Join(dir, walFileName(0))
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x31, 0x4c, 0x57, 0x50, 5, 100, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2 := newDurableEngine(t, dir, 0)
	if got := len(scanAll(t, e2, "ev")); got != 40 {
		t.Fatalf("rows after torn tail = %d, want 40", got)
	}
	insertRows(t, e2, "ev", 40, 50)
	want := scanAll(t, e2, "ev")
	e2.Close()

	e3 := newDurableEngine(t, dir, 0)
	defer e3.Close()
	if got := scanAll(t, e3, "ev"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows after second restart = %d, want %d", len(got), len(want))
	}
}

// TestDurableAddTable: a table built outside SQL is checkpointed as it is
// registered, so a restart restores it and the indexes logged after it.
func TestDurableAddTable(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, 0)
	tbl, err := storage.NewTable("gen", storage.NewSchema(storage.Column{Name: "v", Typ: vector.Int64}), 2)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if err := tbl.AppendColumns(p, []*vector.Vector{vector.NewFromInt64([]int64{1, 2, 2, int64(10 + p)})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE PATCHINDEX ON gen(v) UNIQUE THRESHOLD 0.9")
	e.Close()

	e2 := newDurableEngine(t, dir, 0)
	defer e2.Close()
	if e2.Recovery().ManifestTables != 1 {
		t.Errorf("ManifestTables = %d, want 1", e2.Recovery().ManifestTables)
	}
	if e2.Catalog().Index("gen", "v") == nil {
		t.Error("index on the added table not restored")
	}
	if got := mustExec(t, e2, "SELECT COUNT(DISTINCT v) FROM gen").Rows[0][0].I64; got != 4 {
		t.Errorf("COUNT(DISTINCT v) = %d, want 4", got)
	}
}

// TestFailedOpenStartsNoLoops: the tuner and the watchdog start only after
// the data dir has opened, so a failed open leaves no goroutine running.
func TestFailedOpenStartsNoLoops(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := New(Config{DataDir: notDir, AutoTune: true, Monitor: true}); err == nil {
		t.Fatal("New on a plain file must fail")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines %d after the failed open, %d before", n, before)
	}
}

// TestInsertAllOrNothing: an INSERT with a bad value in any row changes
// nothing, live or after reopen — every row is coerced before any is
// appended, so the live table and the WAL cannot disagree.
func TestInsertAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, 0)
	mustExec(t, e, "CREATE TABLE t (a BIGINT, b BIGINT)")
	if _, err := e.Exec("INSERT INTO t VALUES (1, 1), (2, 2), (3, 'x')"); err == nil {
		t.Fatal("INSERT of a string into a BIGINT column must fail")
	}
	if got := mustExec(t, e, "SELECT COUNT(*) FROM t").Rows[0][0].I64; got != 0 {
		t.Errorf("live COUNT(*) after failed INSERT = %d, want 0", got)
	}
	e = reopen(t, e, dir)
	defer e.Close()
	if got := mustExec(t, e, "SELECT COUNT(*) FROM t").Rows[0][0].I64; got != 0 {
		t.Errorf("reopened COUNT(*) after failed INSERT = %d, want 0", got)
	}
}
