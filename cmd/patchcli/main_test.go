package main

import (
	"reflect"
	"strings"
	"testing"

	"patchindex"
	"patchindex/internal/vector"
)

// fakeRunner stands in for a server connection: it records what the shell
// sends and answers every statement with one single-cell row.
type fakeRunner struct {
	execs  []string
	traced []bool
	sets   []string
}

func (f *fakeRunner) exec(sql string, trace bool) (*patchindex.Result, error) {
	f.execs = append(f.execs, sql)
	f.traced = append(f.traced, trace)
	return &patchindex.Result{Columns: []string{"c"}, Rows: [][]vector.Value{{vector.StringValue("x")}}}, nil
}

func (f *fakeRunner) set(key, value string) error {
	f.sets = append(f.sets, key+"="+value)
	return nil
}

func (f *fakeRunner) engine() *patchindex.Engine { return nil }

// runREPL feeds input to the shell over r and returns stdout and stderr.
func runREPL(r runner, input string) (string, string) {
	var out, errOut strings.Builder
	repl(strings.NewReader(input), &out, &errOut, r)
	return out.String(), errOut.String()
}

// TestREPLEmbeddedOnlyToggles: over a connection, \workload on|off and
// \alerts on|off are refused instead of being pasted into the next
// statement.
func TestREPLEmbeddedOnlyToggles(t *testing.T) {
	f := &fakeRunner{}
	_, errOut := runREPL(f, "\\workload on\nSELECT 1;\n\\alerts off\nSELECT\n  2;\n")
	if want := []string{"SELECT 1;\n", "SELECT\n  2;\n"}; !reflect.DeepEqual(f.execs, want) {
		t.Fatalf("statements sent = %q, want %q", f.execs, want)
	}
	if strings.Count(errOut, "embedded mode only") != 2 {
		t.Fatalf("stderr = %q, want two embedded-mode-only errors", errOut)
	}
}

// TestREPLTogglesEmbeddedEngine: the same commands switch a local engine's
// profiler and watchdog.
func TestREPLTogglesEmbeddedEngine(t *testing.T) {
	eng, err := patchindex.New(patchindex.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, errOut := runREPL(local{eng}, "\\workload on\n\\alerts on\n")
	if errOut != "" || !eng.Profiler().Enabled() || !eng.Monitor().Enabled() {
		t.Fatalf("toggles failed: stderr=%q profiler=%v monitor=%v", errOut, eng.Profiler().Enabled(), eng.Monitor().Enabled())
	}
	runREPL(local{eng}, "\\alerts off\n")
	if eng.Monitor().Enabled() {
		t.Fatal("\\alerts off left the watchdog running")
	}
}

// TestBackslashCommandsRenderTheirViews: each view command runs exactly its
// surface's SHOW views, each under a "<view>:" heading.
func TestBackslashCommandsRenderTheirViews(t *testing.T) {
	for cmd, surface := range map[string]string{
		"stats": "stats", "queries": "queries", "workload": "workload",
		"indexes": "indexes", "tune": "tuner", "alerts": "alerts",
	} {
		if patchindex.SurfaceViews(surface) == nil {
			t.Fatalf("\\%s: no surface %q", cmd, surface)
		}
		f := &fakeRunner{}
		out, errOut := runREPL(f, "\\"+cmd+"\n")
		var want []string
		for _, v := range patchindex.SurfaceViews(surface) {
			want = append(want, "SHOW "+v)
			if !strings.Contains(out, v+":\n") {
				t.Errorf("\\%s output lacks a %s section:\n%s", cmd, v, out)
			}
		}
		if errOut != "" || !reflect.DeepEqual(f.execs, want) {
			t.Errorf("\\%s ran %q (stderr %q), want %q", cmd, f.execs, errOut, want)
		}
	}
}

// TestBackslashControlCommands covers the commands that are not views.
func TestBackslashControlCommands(t *testing.T) {
	f := &fakeRunner{}
	_, errOut := runREPL(f, "\\tune now\n\\set max_rows 5\n\\trace on\nSELECT 1;\n\\bogus\n\\q\nSELECT 2;\n")
	if want := []string{"ALTER TUNER NOW", "SELECT 1;\n"}; !reflect.DeepEqual(f.execs, want) {
		t.Fatalf("statements sent = %q, want %q (\\q must stop the shell)", f.execs, want)
	}
	if !reflect.DeepEqual(f.traced, []bool{false, true}) {
		t.Fatalf("trace flags = %v, want tracing only after \\trace on", f.traced)
	}
	if !reflect.DeepEqual(f.sets, []string{"max_rows=5"}) {
		t.Fatalf("settings = %v", f.sets)
	}
	if !strings.Contains(errOut, "unknown command \\bogus") {
		t.Fatalf("stderr = %q, want the unknown command reported", errOut)
	}
}
