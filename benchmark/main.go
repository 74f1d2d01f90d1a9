// Command benchmark is the repository's measuring instrument: seven
// workloads, three bounded end-to-end metrics plus the failure count on each,
// and a separate traced run that attributes time to layers. See README.md.
//
// The driver's contract (one workload, last stdout line is one JSON object):
//
//	benchmark --workload nuc-distinct --seed 1 --seconds 5 --trace 0
//
// Without --workload it runs the whole suite and prints a table; -selfcheck
// runs the suite twice and compares the two with the benchmark's own bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// setupsPerRun is how often a run sets its workload up, so that setup_s is a
// median and not a single reading.
const setupsPerRun = 3

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all, as a suite)")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 5, "length of the measured window in seconds")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice, in opposite orders, and compare the two sets")
		out       = flag.String("out", "", "also write every result as one JSON document to this file")
		workdir   = flag.String("workdir", "", "scratch directory for data files (default: the system's)")
		outdir    = flag.String("outdir", "out", "directory the trace files are written to")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds s] [--trace 0|1] [-selfcheck] [-out file]")
		os.Exit(2)
	}
	if *workdir != "" {
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			fatal(err)
		}
	}
	rc := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), sc: fullScale, workdir: *workdir}
	doc := document{Env: captureEnv()}
	printEnv(os.Stdout, doc.Env)

	switch {
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var res *runResult
		var err error
		if *trace == 1 {
			res, err = runTraced(w, rc, *outdir)
		} else {
			res, err = runEndToEnd(w, rc, setupsPerRun)
		}
		if err != nil {
			fatal(err)
		}
		doc.Runs = append(doc.Runs, res)
		printRun(os.Stdout, res)
		writeDoc(*out, doc)
		// The contract's result: the last line of standard output.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))

	case *selfcheck:
		first, err := runSuite(*workdir, false)
		if err != nil {
			fatal(err)
		}
		second, err := runSuite(*workdir, true)
		if err != nil {
			fatal(err)
		}
		doc.Runs = append(first, second...)
		writeDoc(*out, doc)
		if !compareSets(os.Stdout, first, second) {
			os.Exit(1)
		}

	default:
		runs, err := runSuite(*workdir, false)
		if err != nil {
			fatal(err)
		}
		doc.Runs = runs
		writeDoc(*out, doc)
		for _, r := range runs {
			if !r.Correct {
				os.Exit(1)
			}
		}
	}
}

// suiteFlags are the flags a suite passes on to the run of each workload.
var suiteFlags = []string{"seed", "seconds", "trace", "workdir", "outdir"}

// runSuite runs every workload once, in list order or reversed, printing
// each as it completes; the results come back in list order. Each workload
// runs in a process of its own: in one process the heap a workload leaves
// behind changes the next one's numbers (plain-agg-par measured a quarter
// slower after durable-ingest-scan than alone).
func runSuite(workdir string, reversed bool) ([]*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		for _, name := range suiteFlags {
			if f.Name == name {
				pass = append(pass, "-"+name, f.Value.String())
			}
		}
	})
	runs := make([]*runResult, len(workloads))
	for i := range workloads {
		k := i
		if reversed {
			k = len(workloads) - 1 - i
		}
		result, err := os.CreateTemp(workdir, "result-*.json")
		if err != nil {
			return nil, err
		}
		result.Close()
		defer os.Remove(result.Name())
		cmd := exec.Command(exe, append(pass, "-workload", workloads[k].name, "-out", result.Name())...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workloads[k].name, err)
		}
		data, err := os.ReadFile(result.Name())
		if err != nil {
			return nil, err
		}
		var doc document
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Runs) != 1 {
			return nil, fmt.Errorf("%s: unreadable result: %v", workloads[k].name, err)
		}
		// The child's report, without its environment line and result line.
		lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
		fmt.Println(strings.Join(lines[1:len(lines)-1], "\n"))
		runs[k] = doc.Runs[0]
	}
	return runs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
