// Command patchcli is an interactive SQL shell for the patchindex engine,
// embedded or against a patchserver. It can pre-load the demo datasets so
// PatchIndex behaviour is explorable interactively:
//
//	patchcli                       # empty engine
//	patchcli -demo tpcds           # customer, catalog_sales, date_dim
//	patchcli -demo custom -rows N  # the custom exception-rate table
//	patchcli -data-dir DIR         # durable engine: DIR is restored on restart
//	patchcli -e "SELECT ..."       # execute one statement and exit
//	patchcli -e "SELECT ..." stats # ... then dump engine metrics
//	patchcli -parallelism 4        # per-partition pipelines on up to 4 workers
//	patchcli -connect host:5433    # remote shell against a patchserver
//	patchcli -connect host:5433 -tenant dash   # ... as QoS tenant "dash"
//
// Inside the shell, statements end with ';'. Backslash commands print the
// engine's SHOW views, the same in both modes and the same as the server's
// HTTP ?format=text: \stats (metrics), \queries (recent query history),
// \workload (the workload observatory), \indexes (per-index health and
// benefit attribution), \tune (the self-tuner) and \alerts (the health
// watchdog). \trace on|off toggles per-statement tracing (the trace id is
// printed after each result), \tune on|off|now|rollback controls the tuner,
// and \set KEY VALUE adjusts remote session settings (timeout_ms, max_rows,
// disable_rewrites, parallelism, tenant). \workload on|off and \alerts
// on|off switch the profiler and the watchdog's sampler of an embedded
// engine; a server sets those with its -workload and -monitor flags. Try:
//
//	SHOW TABLES;
//	CREATE PATCHINDEX ON customer(c_email_address) UNIQUE THRESHOLD 0.1;
//	EXPLAIN SELECT COUNT(DISTINCT c_email_address) FROM customer;
//	EXPLAIN ANALYZE SELECT COUNT(DISTINCT c_email_address) FROM customer;
//	SELECT COUNT(DISTINCT c_email_address) FROM customer;
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/server"
	"patchindex/internal/tuning"
	"patchindex/internal/vector"
)

func main() {
	demo := flag.String("demo", "", "preload dataset: tpcds or custom")
	rows := flag.Int("rows", 1_000_000, "rows for -demo custom / sales rows for -demo tpcds")
	partitions := flag.Int("partitions", 8, "partitions for preloaded tables")
	uniqueRate := flag.Float64("unique-rate", 0.05, "uniqueness exception rate for -demo custom")
	sortedRate := flag.Float64("sorted-rate", 0.05, "sortedness exception rate for -demo custom")
	dataDir := flag.String("data-dir", "", "data directory for durability: compressed column segments, manifest, WAL, materialized PatchIndexes")
	execStmt := flag.String("e", "", "execute one statement and exit")
	parallelism := flag.Int("parallelism", 0, "degree of intra-query parallelism (0 = serial, >1 = bounded worker pool)")
	slowMS := flag.Int("slow-ms", 0, "log statements slower than this many milliseconds")
	workload := flag.Bool("workload", false, "enable the workload observatory (statement fingerprinting, benefit attribution)")
	workloadFPs := flag.Int("workload-fingerprints", 0, "max statement fingerprints tracked (0 = default 256)")
	tune := flag.Bool("tune", false, "start the background self-tuner (implies -workload)")
	tuneIntervalMS := flag.Int("tune-interval-ms", 0, "self-tuner cycle period in milliseconds (0 = default)")
	connect := flag.String("connect", "", "connect to a patchserver at host:port instead of running an embedded engine")
	tenant := flag.String("tenant", "", "QoS tenant for the remote session (with -connect; also `\\set tenant ID` at runtime)")
	flag.Parse()

	var r runner
	banner := "patchindex shell"
	if *connect != "" {
		cli, err := server.Dial(*connect)
		if err != nil {
			fatal(err)
		}
		defer cli.Close()
		if *tenant != "" {
			if err := cli.SetTenant(*tenant); err != nil {
				fatal(err)
			}
		}
		r = remote{cli}
		banner = fmt.Sprintf("patchindex shell — connected to %s (session %d)", *connect, cli.SessionID())
	} else {
		eng, err := patchindex.New(patchindex.Config{
			DefaultPartitions:    *partitions,
			Parallelism:          *parallelism,
			DataDir:              *dataDir,
			SlowQueryThreshold:   time.Duration(*slowMS) * time.Millisecond,
			WorkloadProfile:      *workload,
			WorkloadFingerprints: *workloadFPs,
			AutoTune:             *tune,
			Tuning:               tuning.Config{Interval: time.Duration(*tuneIntervalMS) * time.Millisecond},
		})
		if err != nil {
			fatal(err)
		}
		defer eng.Close()
		// A data dir restored from an earlier run already holds the demo.
		if *demo != "" && len(eng.Catalog().TableNames()) > 0 {
			fmt.Fprintf(os.Stderr, "-data-dir already holds tables; -demo %s not loaded\n", *demo)
		} else if err := datagen.LoadDemo(eng.AddTable, os.Stderr, *demo, *rows, *partitions, *uniqueRate, *sortedRate); err != nil {
			fatal(err)
		}
		r = local{eng}
	}

	if *execStmt != "" {
		if err := runStatement(os.Stdout, r, *execStmt, false); err != nil {
			fatal(err)
		}
	}
	// A trailing `stats` argument dumps the embedded engine's registry in
	// Prometheus text — after -e, or after -demo loading to see index build
	// timings.
	if l, ok := r.(local); ok && flag.Arg(0) == "stats" {
		l.eng.Metrics().WriteText(os.Stdout)
		return
	}
	if *execStmt != "" {
		return
	}

	fmt.Println(banner + ` — statements end with ';', \q quits; \stats, \queries, \workload [on|off], \indexes, \tune [on|off|now|rollback], \alerts [on|off], \trace on|off, \set KEY VALUE`)
	repl(os.Stdin, os.Stdout, os.Stderr, r)
}

// runner executes statements for the shell: the embedded engine or a
// patchserver connection.
type runner interface {
	// exec runs one statement; trace asks for a span trace.
	exec(sql string, trace bool) (*patchindex.Result, error)
	// set adjusts a session setting.
	set(key, value string) error
	// engine is the embedded engine, nil when connected to a server.
	engine() *patchindex.Engine
}

type local struct{ eng *patchindex.Engine }

func (l local) exec(sql string, trace bool) (*patchindex.Result, error) {
	return l.eng.ExecWith(sql, patchindex.ExecOptions{Trace: trace})
}

func (local) set(string, string) error {
	return errors.New(`\set adjusts server session settings; use -connect`)
}

func (l local) engine() *patchindex.Engine { return l.eng }

type remote struct{ cli *server.Client }

// exec runs the statement on the server and rebuilds the result from its
// rendered cells, so the shell prints it like a local one. A max_rows clip
// is noted in Message, which the shell prints under the table.
func (r remote) exec(sql string, trace bool) (*patchindex.Result, error) {
	r.cli.Trace(trace)
	cr, err := r.cli.Query(sql)
	if err != nil {
		return nil, err
	}
	res := &patchindex.Result{Columns: cr.Columns, Message: cr.Message, Duration: cr.Duration, TraceID: cr.TraceID}
	for _, row := range cr.Rows {
		vals := make([]vector.Value, len(row))
		for i, cell := range row {
			vals[i] = vector.StringValue(cell)
		}
		res.Rows = append(res.Rows, vals)
	}
	if cr.Truncated {
		res.Message = "(truncated by max_rows)"
	}
	return res, nil
}

func (r remote) set(key, value string) error { return r.cli.Set(map[string]string{key: value}) }

func (remote) engine() *patchindex.Engine { return nil }

// repl reads statements and backslash commands from in until EOF or \q.
// Statements end with ';' and may span lines; a backslash command is only
// recognized on a line of its own outside a statement. Output goes to out,
// errors to errOut.
func repl(in io.Reader, out, errOut io.Writer, r runner) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	trace := false
	prompt := "sql> "
	for {
		fmt.Fprint(out, prompt)
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 {
			if trimmed == `\q` || trimmed == "quit" || trimmed == "exit" {
				return
			}
			if strings.HasPrefix(trimmed, `\`) {
				if err := command(out, r, trimmed, &trace); err != nil {
					fmt.Fprintf(errOut, "error: %v\n", err)
				}
				continue
			}
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			prompt = "sql> "
			if err := runStatement(out, r, stmt, trace); err != nil {
				fmt.Fprintf(errOut, "error: %v\n", err)
			}
		} else if buf.Len() > 0 {
			prompt = "...> "
		}
	}
}

// tunerActions maps the \tune arguments to ALTER TUNER statements.
var tunerActions = map[string]string{
	"on": "ALTER TUNER START", "off": "ALTER TUNER STOP",
	"now": "ALTER TUNER NOW", "rollback": "ALTER TUNER ROLLBACK",
}

// command runs one backslash command; trace is the shell's \trace state.
// A bare \<surface> prints the surface's views (\tune prints tuner).
func command(out io.Writer, r runner, line string, trace *bool) error {
	args := strings.Fields(strings.TrimPrefix(line, `\`))
	if len(args) == 0 {
		return fmt.Errorf("unknown command %s", line)
	}
	name, args := args[0], args[1:]
	switch {
	case name == "trace":
		if len(args) != 1 || (args[0] != "on" && args[0] != "off") {
			return errors.New(`usage: \trace on|off`)
		}
		*trace = args[0] == "on"
		fmt.Fprintf(out, "tracing %s\n", args[0])
		return nil
	case name == "set":
		if len(args) != 2 {
			return errors.New(`usage: \set KEY VALUE`)
		}
		return r.set(args[0], args[1])
	case name == "tune" && len(args) == 1:
		stmt, ok := tunerActions[args[0]]
		if !ok {
			return errors.New(`usage: \tune [on|off|now|rollback]`)
		}
		return runStatement(out, r, stmt, *trace)
	case (name == "workload" || name == "alerts") && len(args) == 1:
		return toggle(out, r.engine(), name, args[0])
	case name == "tune":
		name = "tuner"
	}
	views := patchindex.SurfaceViews(name)
	if views == nil || len(args) > 0 {
		return fmt.Errorf("unknown command %s", line)
	}
	return patchindex.WriteViews(out, views, func(sql string) (*patchindex.Result, error) {
		return r.exec(sql, false)
	})
}

// toggle runs \workload on|off and \alerts on|off, which switch an embedded
// engine's profiler and watchdog sampler.
func toggle(out io.Writer, eng *patchindex.Engine, name, arg string) error {
	if arg != "on" && arg != "off" {
		return fmt.Errorf(`usage: \%s [on|off]`, name)
	}
	if eng == nil {
		return fmt.Errorf(`\%s %s: embedded mode only (start patchserver with -workload or -monitor)`, name, arg)
	}
	on := arg == "on"
	if name == "workload" {
		eng.Profiler().SetEnabled(on)
		fmt.Fprintf(out, "workload profiling %s\n", arg)
		return nil
	}
	if on {
		eng.Monitor().Start()
	} else {
		eng.Monitor().Stop()
	}
	fmt.Fprintf(out, "health watchdog %s\n", arg)
	return nil
}

// runStatement executes one statement and prints its result and timing.
func runStatement(out io.Writer, r runner, stmt string, trace bool) error {
	res, err := r.exec(stmt, trace)
	if err != nil {
		return err
	}
	s := res.String()
	if len(res.Columns) > 0 && res.Message != "" {
		s += res.Message
	}
	fmt.Fprint(out, s)
	if !strings.HasSuffix(s, "\n") {
		fmt.Fprintln(out)
	}
	if res.TraceID != 0 {
		fmt.Fprintf(out, "-- %s (trace %d)\n", res.Duration.Round(time.Microsecond), res.TraceID)
	} else {
		fmt.Fprintf(out, "-- %s\n", res.Duration.Round(time.Microsecond))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "patchcli: %v\n", err)
	os.Exit(1)
}
