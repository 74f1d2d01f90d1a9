package patchindex

import (
	"os"
	"path/filepath"
	"testing"

	"patchindex/internal/discovery"
	"patchindex/internal/vector"
)

// TestMaterializedRecovery: a durable engine materializes each index under
// DataDir/idx, and a restart restores the indexes from those files instead
// of re-running discovery.
func TestMaterializedRecovery(t *testing.T) {
	dir := t.TempDir()
	e1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	loadExceptionTable(t, e1, "data", 8000, 2, 0.04, 19)
	mustExec(t, e1, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5")
	mustExec(t, e1, "CREATE PATCHINDEX ON data(s) SORTED THRESHOLD 0.5")
	cardU := e1.Catalog().Index("data", "u").Cardinality()
	cardS := e1.Catalog().Lookup("data", "s", nscConstraint()).Cardinality()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"data.u.nuc.pidx", "data.s.nsc.pidx"} {
		if _, err := os.Stat(filepath.Join(dir, "idx", name)); err != nil {
			t.Fatalf("materialized file %s missing: %v", name, err)
		}
	}

	e2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Recovery().IndexFiles; got != 2 {
		t.Errorf("IndexFiles = %d, want 2 (both indexes loaded from idx/)", got)
	}
	if got := e2.Catalog().Index("data", "u").Cardinality(); got != cardU {
		t.Errorf("recovered NUC cardinality %d, want %d", got, cardU)
	}
	if got := e2.Catalog().Lookup("data", "s", nscConstraint()).Cardinality(); got != cardS {
		t.Errorf("recovered NSC cardinality %d, want %d", got, cardS)
	}
	// Queries over the recovered index stay exact.
	a := mustExec(t, e2, "SELECT COUNT(DISTINCT u) FROM data")
	b, err := e2.ExecWith("SELECT COUNT(DISTINCT u) FROM data", ExecOptions{DisablePatchRewrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0][0].I64 != b.Rows[0][0].I64 {
		t.Errorf("recovered index produced %v, baseline %v", a.Rows[0][0], b.Rows[0][0])
	}
}

// TestMaterializedRecoveryFallsBack: a corrupt file, a file saved before
// later appends, and a file saved for another definition are each rejected,
// and the index is rediscovered from the data.
func TestMaterializedRecoveryFallsBack(t *testing.T) {
	reopen := func(t *testing.T, dir string) *Engine {
		t.Helper()
		e, err := New(Config{DataDir: dir})
		if err != nil {
			t.Fatalf("recovery must fall back to discovery: %v", err)
		}
		if got := e.Recovery().IndexFiles; got != 0 {
			t.Errorf("IndexFiles = %d, want 0 (file must be rejected)", got)
		}
		return e
	}

	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		e1, err := New(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		uniq, _ := loadExceptionTable(t, e1, "data", 5000, 2, 0.05, 23)
		mustExec(t, e1, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5")
		e1.Close()
		path := filepath.Join(dir, "idx", "data.u.nuc.pidx")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x55
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e2 := reopen(t, dir)
		defer e2.Close()
		if got := mustExec(t, e2, "SELECT COUNT(DISTINCT u) FROM data").Rows[0][0].I64; got != distinctCount(uniq) {
			t.Errorf("fallback recovery wrong: %d, want %d", got, distinctCount(uniq))
		}
	})

	t.Run("stale", func(t *testing.T) {
		dir := t.TempDir()
		e1, err := New(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		uniq, _ := loadExceptionTable(t, e1, "data", 5000, 2, 0.05, 23)
		mustExec(t, e1, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5")
		// Appends after the file was written: the maintained index moves on,
		// the file does not.
		more := []int64{uniq[0], uniq[1], 7_000_000}
		if err := e1.Append("data", 0, []*vector.Vector{
			vector.NewFromInt64(more), vector.NewFromInt64([]int64{1, 2, 3}), vector.NewFromFloat64([]float64{0, 0, 0}),
		}); err != nil {
			t.Fatal(err)
		}
		mustExec(t, e1, "CHECKPOINT")
		want := e1.Catalog().Index("data", "u").Cardinality()
		e1.Close()
		e2 := reopen(t, dir)
		defer e2.Close()
		if got := e2.Catalog().Index("data", "u").Cardinality(); got != want {
			t.Errorf("recovered cardinality %d, want %d", got, want)
		}
		if got := mustExec(t, e2, "SELECT COUNT(DISTINCT u) FROM data").Rows[0][0].I64; got != distinctCount(append(uniq, more...)) {
			t.Errorf("stale materialization used: %d, want %d", got, distinctCount(append(uniq, more...)))
		}
	})

	t.Run("other definition", func(t *testing.T) {
		dir := t.TempDir()
		e1, err := New(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		loadExceptionTable(t, e1, "data", 5000, 2, 0.05, 23)
		mustExec(t, e1, "CREATE PATCHINDEX ON data(s) SORTED THRESHOLD 0.5")
		want := e1.Catalog().Lookup("data", "s", nscConstraint()).Cardinality()
		// Overwrite the ascending index's file with a descending one.
		tbl, err := e1.Catalog().Table("data")
		if err != nil {
			t.Fatal(err)
		}
		desc, err := discovery.BuildIndex(tbl, "s", nscConstraint(), discovery.BuildOptions{Descending: true, Force: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := desc.Save(e1.indexPath("data", "s", nscConstraint())); err != nil {
			t.Fatal(err)
		}
		e1.Close()
		e2 := reopen(t, dir)
		defer e2.Close()
		ix := e2.Catalog().Lookup("data", "s", nscConstraint())
		if ix.Descending() || ix.Cardinality() != want {
			t.Errorf("restored descending=%v cardinality=%d, want ascending with %d", ix.Descending(), ix.Cardinality(), want)
		}
	})
}

// TestDropRemovesMaterialization: DROP PATCHINDEX deletes the index's file at
// once; after DROP TABLE the next checkpoint sweeps the table's index files.
func TestDropRemovesMaterialization(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadExceptionTable(t, e, "data", 2000, 2, 0.05, 31)
	mustExec(t, e, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5")
	mustExec(t, e, "CREATE PATCHINDEX ON data(s) SORTED THRESHOLD 0.5")
	nuc := filepath.Join(dir, "idx", "data.u.nuc.pidx")
	nsc := filepath.Join(dir, "idx", "data.s.nsc.pidx")
	for _, path := range []string{nuc, nsc} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("file not created: %v", err)
		}
	}
	mustExec(t, e, "DROP PATCHINDEX ON data(u)")
	if _, err := os.Stat(nuc); !os.IsNotExist(err) {
		t.Error("drop must remove the materialized file")
	}
	mustExec(t, e, "CHECKPOINT")
	if _, err := os.Stat(nsc); err != nil {
		t.Fatalf("checkpoint swept a live index file: %v", err)
	}
	mustExec(t, e, "DROP TABLE data")
	mustExec(t, e, "CHECKPOINT")
	if _, err := os.Stat(nsc); !os.IsNotExist(err) {
		t.Error("checkpoint must sweep the dropped table's index file")
	}
}
