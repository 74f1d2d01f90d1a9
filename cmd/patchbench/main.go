// Command patchbench regenerates the tables and figures of the paper's
// evaluation (Section VII: Table I, Figures 4-6, the NSC join and the
// memory comparison) at a configurable scale.
//
// Usage:
//
//	patchbench [-exp all|table1|nsc-join|fig4|fig5|fig6|memory]
//	           [-rows N] [-customer-rows N] [-sales-rows N]
//	           [-partitions N] [-reps N] [-parallel N] [-quick]
//	           [-json FILE] [-trace FILE] [-trace-sql SQL]
//
// -parallel N sets the degree of intra-query parallelism for every engine
// the experiments create (0 = serial plans; workers are still bounded by
// GOMAXPROCS at execution time).
//
// With -json the run additionally emits a machine-readable document holding
// the configuration, every individual measurement, and a snapshot of the
// engine-wide metrics registry accumulated across all experiments.
//
// With -trace the run (instead of the experiments) executes one traced
// benchmark query against the custom dataset and writes its span tree in
// Chrome trace-event format, ready for chrome://tracing or Perfetto:
//
//	patchbench -quick -trace trace.json
//	patchbench -quick -trace trace.json -trace-sql 'SELECT COUNT(*) FROM data WHERE u > 100'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"patchindex/internal/bench"
	"patchindex/internal/obs"
)

// report is the -json output document.
type report struct {
	Timestamp    string              `json:"timestamp"`
	Config       bench.Config        `json:"config"`
	Experiments  []string            `json:"experiments"`
	Measurements []bench.Measurement `json:"measurements"`
	Metrics      obs.Snapshot        `json:"metrics"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all': "+strings.Join(bench.All(), ", "))
	rows := flag.Int("rows", 0, "custom dataset rows (default 10M, quick 200K)")
	customerRows := flag.Int("customer-rows", 0, "customer table rows (default 1.2M)")
	salesRows := flag.Int("sales-rows", 0, "catalog_sales rows (default 10M)")
	partitions := flag.Int("partitions", 0, "table partitions (default 24)")
	reps := flag.Int("reps", 0, "repetitions per measurement (median reported)")
	parallel := flag.Int("parallel", 0, "degree of intra-query parallelism (0 = serial)")
	quick := flag.Bool("quick", false, "small quick configuration")
	rates := flag.String("rates", "", "comma-separated exception rates, e.g. 0,0.1,0.5")
	jsonOut := flag.String("json", "", "write machine-readable results to this file ('-' for stdout)")
	traceOut := flag.String("trace", "", "trace one benchmark query and write a Chrome trace-event file ('-' for stdout)")
	traceSQL := flag.String("trace-sql", "", "query to trace with -trace (default: the Table 1 COUNT DISTINCT probe)")
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *rows > 0 {
		cfg.Rows = *rows
	}
	if *customerRows > 0 {
		cfg.CustomerRows = *customerRows
	}
	if *salesRows > 0 {
		cfg.SalesRows = *salesRows
	}
	if *partitions > 0 {
		cfg.Partitions = *partitions
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	cfg.Parallelism = *parallel
	if *rates != "" {
		cfg.Rates = nil
		for _, part := range strings.Split(*rates, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || f < 0 || f > 1 {
				fmt.Fprintf(os.Stderr, "patchbench: invalid rate %q\n", part)
				os.Exit(2)
			}
			cfg.Rates = append(cfg.Rates, f)
		}
	}

	if *traceOut != "" {
		if err := emitTrace(cfg, *traceSQL, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "patchbench: trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep := report{Measurements: []bench.Measurement{}}
	if *jsonOut != "" {
		cfg.Metrics = obs.NewRegistry()
		cfg.Record = func(m bench.Measurement) {
			rep.Measurements = append(rep.Measurements, m)
		}
	}

	ids := bench.All()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Println()
		}
		if err := bench.Run(strings.TrimSpace(id), cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "patchbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}

	if *jsonOut != "" {
		rep.Timestamp = time.Now().UTC().Format(time.RFC3339)
		rep.Config = cfg
		rep.Experiments = ids
		rep.Metrics = cfg.Metrics.Snapshot()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "patchbench: json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "patchbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// emitTrace runs one traced benchmark query and writes the resulting span
// tree as a Chrome trace-event document to path ('-' for stdout).
func emitTrace(cfg bench.Config, sqlText, path string) error {
	tr, err := bench.TraceQuery(cfg, sqlText)
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := tr.WriteChrome(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "patchbench: trace %d (%s, %d rows, %d spans) written to %s\n",
		tr.ID, time.Duration(tr.Duration), tr.Rows, len(tr.Spans), path)
	return nil
}
