package patchindex

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"patchindex/internal/tuning"
)

// showQuery is the SHOW statement that runs a view; timeseries needs a
// metric, and the runtime gauges exist after any sampling pass.
func showQuery(view string) string {
	if view == "timeseries" {
		return "SHOW " + view + " FOR 'gauge.runtime_goroutines'"
	}
	return "SHOW " + view
}

// loadedViewEngine builds an engine where every view has rows: tables, a
// PatchIndex that fires, traced and profiled queries (fingerprints, column
// accesses, shadow savings, benefit attribution), a tuner cycle with its
// journal, and a firing alert.
func loadedViewEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{
		TraceSample:     1,
		WorkloadProfile: true,
		Tuning:          tuning.Config{Interval: time.Hour, MinTicks: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	loadExceptionTable(t, e, "data", 4000, 2, 0.05, 3)
	mustExec(t, e, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5")
	for i := 0; i < 4; i++ {
		mustExec(t, e, "SELECT COUNT(DISTINCT u) FROM data")
		mustExec(t, e, "SELECT s FROM data ORDER BY s LIMIT 3")
		mustExec(t, e, "SELECT COUNT(*) FROM data WHERE payload < 10")
	}
	mustExec(t, e, "ALTER TUNER START")
	mustExec(t, e, "ALTER TUNER STOP")
	mustExec(t, e, "ALTER TUNER NOW")

	m := e.Monitor()
	now := int64(time.Second)
	m.SetClock(func() int64 { return now })
	for i := 0; i < 2; i++ {
		m.Series().Get("index.data.s.nsc.patch_ratio").Observe(now, 0.5)
		m.SampleNow()
		now += int64(time.Second)
	}
	return e
}

// TestViewsRunOnEmptyAndLoadedEngine runs every registered view, so a new
// view is covered by construction: each returns columns and rows of that
// width on an empty engine, and at least one row on a loaded one.
func TestViewsRunOnEmptyAndLoadedEngine(t *testing.T) {
	empty := newTestEngine(t)
	empty.Monitor().SampleNow()
	loaded := loadedViewEngine(t)
	for _, tc := range []struct {
		name     string
		e        *Engine
		needRows bool
	}{{"empty", empty, false}, {"loaded", loaded, true}} {
		for _, view := range tc.e.Views() {
			res, err := tc.e.Exec(showQuery(view))
			if err != nil {
				t.Fatalf("%s engine: %s: %v", tc.name, view, err)
			}
			if len(res.Columns) == 0 {
				t.Fatalf("%s engine: %s has no columns", tc.name, view)
			}
			for i, row := range res.Rows {
				if len(row) != len(res.Columns) {
					t.Fatalf("%s engine: %s row %d has %d values for %d columns", tc.name, view, i, len(row), len(res.Columns))
				}
			}
			if tc.needRows && len(res.Rows) == 0 {
				t.Errorf("%s engine: %s returned no rows", tc.name, view)
			}
		}
	}
}

// TestShowRejectsUnknownViewsAndArguments: the parser takes any word after
// SHOW, so the engine names the valid views and checks FOR.
func TestShowRejectsUnknownViewsAndArguments(t *testing.T) {
	e := newTestEngine(t)
	_, err := e.Exec("SHOW NONSENSE")
	if err == nil || !strings.Contains(err.Error(), "tuner_journal") {
		t.Fatalf("SHOW NONSENSE = %v, want an error listing the views", err)
	}
	if _, err := e.Exec("SHOW TABLES FOR x"); err == nil {
		t.Fatal("SHOW TABLES FOR x must fail")
	}
	if _, err := e.Exec("SHOW TIMESERIES"); err == nil {
		t.Fatal("SHOW TIMESERIES without FOR must fail")
	}
}

// TestSurfacesRenderRegisteredViews checks the surface table names only
// registered views and that WriteViews heads each section with its view.
func TestSurfacesRenderRegisteredViews(t *testing.T) {
	e := newTestEngine(t)
	registered := map[string]bool{}
	for _, v := range e.Views() {
		registered[v] = true
	}
	for surface := range surfaces {
		views := SurfaceViews(surface)
		if len(views) == 0 {
			t.Fatalf("surface %s renders no views", surface)
		}
		var sb strings.Builder
		if err := WriteViews(&sb, views, e.Exec); err != nil {
			t.Fatalf("surface %s: %v", surface, err)
		}
		for _, v := range views {
			if !registered[v] {
				t.Fatalf("surface %s names unregistered view %s", surface, v)
			}
			if !strings.Contains(sb.String(), v+":\n") {
				t.Fatalf("surface %s text lacks a %q section:\n%s", surface, v, sb.String())
			}
		}
	}
	if SurfaceViews("nonsense") != nil {
		t.Fatal("unknown surface must have no views")
	}
}

// TestQueriesViewClipsOnRuneBoundary: the query history cuts long SQL at 80
// bytes without splitting a multi-byte character straddling the cut.
func TestQueriesViewClipsOnRuneBoundary(t *testing.T) {
	e := newTestEngine(t)
	e.Tracer().SetEnabled(true)
	mustExec(t, e, "CREATE TABLE t (s VARCHAR)")
	prefix := "SELECT COUNT(*) FROM t WHERE s = '"
	// 'ü' is two bytes; place its first byte at offset 79 so byte 80 splits it.
	q := prefix + strings.Repeat("a", 79-len(prefix)) + strings.Repeat("ü", 10) + "'"
	mustExec(t, e, q)
	res := mustExec(t, e, "SHOW QUERIES")
	if len(res.Rows) == 0 {
		t.Fatal("no query history")
	}
	got := res.Rows[0][len(res.Columns)-1].Str
	if !utf8.ValidString(got) {
		t.Fatalf("clipped SQL is not valid UTF-8: %q", got)
	}
	if !strings.HasSuffix(got, "...") || !strings.HasPrefix(q, strings.TrimSuffix(got, "...")) || len(got) > 83 {
		t.Fatalf("clipped SQL = %q, want a prefix of %q cut near 80 bytes", got, q)
	}
}
