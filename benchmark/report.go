package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is recorded with every result: numbers from different
// machines or toolchains are not comparable.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
}

// document is the -out file: the environment and every run made.
type document struct {
	Env  environment  `json:"environment"`
	Runs []*runResult `json:"runs"`
}

func captureEnv() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown", OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
	// Outside a git checkout (the driver's) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

func printEnv(w io.Writer, e environment) {
	fmt.Fprintf(w, "commit %s  %s  %s  GOMAXPROCS=%d  nproc=%d  cpu: %s\n",
		e.Commit, e.GoVersion, e.OSArch, e.GOMAXPROCS, e.NumCPU, e.CPUModel)
}

const rowFormat = "  %-38s %14s %-6s %s\n"

func num(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e12:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func quartiles(s *summary) string {
	note := fmt.Sprintf("q1 %s  q3 %s  n %d", num(s.Q1), num(s.Q3), s.N)
	if s.TailPct > 0 {
		note += fmt.Sprintf("  p%g %s", s.TailPct, num(s.Tail))
	}
	return note
}

// printRun writes one run as fixed-width rows: metric, value, unit, notes.
func printRun(w io.Writer, r *runResult) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n%s  (%s, seed %d, window %gs after %gs warm-up, %d client(s))\n",
		r.Workload, mode, r.Seed, r.WindowS, r.WarmupS, r.Clients)
	fmt.Fprintf(w, "  primary operation: %s  [%d rows per operation]\n", r.Primary, r.RowsPerOp)
	fmt.Fprintf(w, "  input_digest %s\n", r.InputDigest)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		switch {
		case d.Name == "p50_ms" && r.LatencyMs != nil:
			note = quartiles(r.LatencyMs)
		case d.Name == "setup_s" && r.SetupS != nil:
			note = quartiles(r.SetupS)
		case d.Name == "ops_per_s":
			note = fmt.Sprintf("%d rows per operation", r.RowsPerOp)
		}
		if raw, ok := r.WallClock[d.Name]; ok {
			note += "  wall-clock " + num(raw)
		}
		fmt.Fprintf(w, rowFormat, d.Name, num(m.Value), m.Unit, note)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, rowFormat, "fail_share", num(share), "ratio", fmt.Sprintf("%d failed of %d attempted", r.Failed, r.Attempted))
	if r.Trace {
		fmt.Fprintf(w, "  trace %s: spans cover %.2f %% of statement wall time\n", r.TraceFile, r.TraceCoveragePct)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
}

func writeDoc(path string, doc document) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
}

// compareSets is -selfcheck's verdict on two sets of runs of one commit. For
// every workload and end-to-end metric: `unresolved` when either run's own
// spread exceeds the metric's bound (the instrument cannot tell, so it must
// not say `agree`), `DISAGREE` when the two medians differ by more than the
// bound, `agree` otherwise. It reports whether nothing disagreed and nothing
// failed.
func compareSets(w io.Writer, first, second []*runResult) bool {
	ok := true
	fmt.Fprintf(w, "\nselfcheck: two sets of runs of the same commit\n")
	fmt.Fprintf(w, "  %-20s %-10s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "first", "second", "diff", "spread", "bound", "verdict")
	for i, a := range first {
		b := second[i]
		if !a.Correct || !b.Correct {
			fmt.Fprintf(w, "  %-20s failed operations: %d and %d\n", a.Workload, a.Failed, b.Failed)
			ok = false
		}
		if a.InputDigest != b.InputDigest {
			fmt.Fprintf(w, "  %-20s input digests differ: %s and %s\n", a.Workload, a.InputDigest, b.InputDigest)
			ok = false
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			noise := math.Max(a.WithinRunSpread[d.Name], b.WithinRunSpread[d.Name])
			verdict := "agree"
			switch {
			case noise > d.Bound:
				verdict = "unresolved"
			case diff > d.Bound:
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "  %-20s %-10s %12s %12s %7.1f%% %7.1f%% %6.0f%%  %s\n",
				a.Workload, d.Name, num(va), num(vb), 100*diff, 100*noise, 100*d.Bound, verdict)
		}
	}
	return ok
}
