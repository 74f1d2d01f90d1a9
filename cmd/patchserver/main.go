// Command patchserver runs the patchindex engine as a network server. It
// listens on one TCP port that serves both the patchserver wire protocol
// (see internal/server/protocol; connect with `patchcli -connect`) and
// plain HTTP for /metrics, /stats (with PatchIndex health), /healthz, the
// query history at /queries, Chrome-exportable statement traces at
// /trace/<id>, the workload observatory at /workload (-workload to enable),
// per-index benefit attribution at /indexes, the self-tuner at /tuner
// (-tune to enable background tuning), the health watchdog's time-series at
// /timeseries and alerts at /alerts (-monitor to enable sampling;
// -sample-interval-ms and -alert-rules tune it), and (with -pprof)
// /debug/pprof/. The JSON endpoints /stats, /queries, /workload, /indexes,
// /tuner and /alerts also answer ?format=text with the SHOW views they
// correspond to (patchindex.SurfaceViews); over the wire protocol the same
// views are plain SHOW statements.
//
//	patchserver -listen :5433 -demo tpcds -rows 1000000 -trace-sample 1
//	patchcli -connect localhost:5433
//	curl localhost:5433/metrics
//	curl localhost:5433/queries
//	curl 'localhost:5433/trace/7?format=chrome' > trace.json  # chrome://tracing
//
// The server bounds concurrent query execution (-max-concurrent) with a
// bounded admission queue (-queue-depth); excess load is shed with a
// "busy" error instead of piling up. SIGINT/SIGTERM trigger a graceful
// shutdown that drains in-flight queries for up to -grace seconds.
//
// The serving fast path caches up to 512 bound plans per statement text
// (-plan-cache, on by default, invalidated on every DDL/tuner epoch bump)
// and, opt-in, the results of read-only queries whose rows come back in one
// order on every run, keyed on per-table versions (-result-cache,
// -result-cache-mb); both are one LRU type. Per-tenant QoS (token-bucket rate
// limits, in-flight caps, priority-aware shedding) activates when any
// -qos-* flag or a -tenants JSON file is given; sessions pick their tenant
// with `\set tenant` or the wire protocol's tenant field, and per-tenant
// shed/admitted/in-flight counters surface under /metrics and /stats:
//
//	patchserver -listen :5433 -result-cache -qos-rate 100 -tenants tenants.json
//
// -parallelism N (0 or 1 = serial) splits each statement's plan into
// per-partition pipelines run by at most N workers, capped at GOMAXPROCS;
// sessions override it with `\set parallelism`.
//
// Durability: -data-dir stores compressed column segments, a catalog
// manifest, the WAL and the materialized PatchIndexes in one directory, and
// a restart restores all of it (a -demo dataset is loaded and checkpointed
// on the first run only); -cache-mb bounds the decoded column cache,
// -spill-mb bounds operator memory before Sort/HashJoin spill to disk, and
// -checkpoint-interval runs background checkpoints (manual CHECKPOINT always
// works):
//
//	patchserver -listen :5433 -data-dir /var/lib/patchindex -cache-mb 512 -spill-mb 256 -checkpoint-interval 60
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/obs"
	"patchindex/internal/server"
	"patchindex/internal/serving"
	"patchindex/internal/tuning"
)

func main() {
	listen := flag.String("listen", ":5433", "TCP listen address (wire protocol + HTTP)")
	demo := flag.String("demo", "", "preload dataset: tpcds or custom")
	rows := flag.Int("rows", 1_000_000, "rows for -demo custom / sales rows for -demo tpcds")
	partitions := flag.Int("partitions", 8, "partitions for preloaded tables")
	uniqueRate := flag.Float64("unique-rate", 0.05, "uniqueness exception rate for -demo custom")
	sortedRate := flag.Float64("sorted-rate", 0.05, "sortedness exception rate for -demo custom")
	dataDir := flag.String("data-dir", "", "data directory for durability: compressed column segments, manifest, WAL, materialized PatchIndexes")
	cacheMB := flag.Int("cache-mb", 0, "column cache byte budget in MB for -data-dir mode (0 = unlimited)")
	spillMB := flag.Int("spill-mb", 0, "per-operator memory budget in MB before Sort/HashJoin spill to disk (0 = never spill)")
	checkpointInterval := flag.Int("checkpoint-interval", 0, "seconds between background checkpoints in -data-dir mode (0 = manual CHECKPOINT only)")
	parallelism := flag.Int("parallelism", 0, "degree of intra-query parallelism (0 = serial, >1 = bounded worker pool)")
	slowMS := flag.Int("slow-ms", 0, "log statements slower than this many milliseconds")
	maxConcurrent := flag.Int("max-concurrent", 0, "max queries executing at once (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 64, "max queries waiting for a slot before shedding")
	timeoutMS := flag.Int("timeout-ms", 0, "default per-query timeout in ms (0 = none; sessions can override)")
	maxRows := flag.Int("max-rows", 0, "default result-set clip (0 = unlimited; sessions can override)")
	grace := flag.Int("grace", 10, "graceful-shutdown drain window in seconds")
	traceSample := flag.Int("trace-sample", 0, "trace every Nth statement (0 = off; clients can still request traces per statement)")
	traceHistory := flag.Int("trace-history", 0, "completed-query profiles kept for /queries and /trace/<id> (0 = default 128)")
	workload := flag.Bool("workload", false, "enable the workload observatory (/workload, /indexes benefit attribution)")
	workloadFPs := flag.Int("workload-fingerprints", 0, "max statement fingerprints tracked by the workload observatory (0 = default 256)")
	tune := flag.Bool("tune", false, "start the background self-tuner (implies -workload; ALTER TUNER / \\tune control it at runtime)")
	tuneIntervalMS := flag.Int("tune-interval-ms", 0, "self-tuner cycle interval in ms (0 = default 2000)")
	monitor := flag.Bool("monitor", false, "start the health watchdog sampler (/timeseries, /alerts, SHOW ALERTS)")
	sampleIntervalMS := flag.Int("sample-interval-ms", 0, "watchdog sampling interval in ms (0 = default 1000)")
	alertRules := flag.String("alert-rules", "", "JSON file of alert rules overriding the built-in watchdog rules")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	planCache := flag.Bool("plan-cache", true, "cache bound plans per statement text (invalidated on every DDL/tuner epoch bump)")
	resultCache := flag.Bool("result-cache", false, "cache the results of read-only queries whose plan returns rows in one order on every run, keyed on table versions")
	resultCacheMB := flag.Int("result-cache-mb", 0, "result cache byte budget in MB (0 = default 32)")
	qosRate := flag.Float64("qos-rate", 0, "default per-tenant statement rate limit per second (0 = unlimited)")
	qosBurst := flag.Float64("qos-burst", 0, "default per-tenant token-bucket burst (0 = max(rate, 1))")
	qosInFlight := flag.Int("qos-inflight", 0, "default per-tenant in-flight query cap (0 = unlimited)")
	qosPriority := flag.String("qos-priority", "", "default tenant priority: low, normal, or high")
	tenantsFile := flag.String("tenants", "", "JSON file mapping tenant id -> QoS limits (rate_per_sec, burst, max_in_flight, priority, result_cache_bytes)")
	flag.Parse()

	var rules []obs.Rule
	if *alertRules != "" {
		var err error
		if rules, err = obs.LoadRules(*alertRules); err != nil {
			fatal(err)
		}
	}

	eng, err := patchindex.New(patchindex.Config{
		DefaultPartitions:    *partitions,
		Parallelism:          *parallelism,
		DataDir:              *dataDir,
		CacheBytes:           int64(*cacheMB) << 20,
		SpillBytes:           int64(*spillMB) << 20,
		SlowQueryThreshold:   time.Duration(*slowMS) * time.Millisecond,
		TraceSample:          *traceSample,
		TraceHistory:         *traceHistory,
		WorkloadProfile:      *workload,
		WorkloadFingerprints: *workloadFPs,
		AutoTune:             *tune,
		Tuning:               tuning.Config{Interval: time.Duration(*tuneIntervalMS) * time.Millisecond},
		Monitor:              *monitor,
		SampleInterval:       time.Duration(*sampleIntervalMS) * time.Millisecond,
		AlertRules:           rules,
		PlanCache:            *planCache,
		ResultCache:          *resultCache,
		ResultCacheBytes:     int64(*resultCacheMB) << 20,
	})
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	var qos *serving.QoS
	overrides := map[string]serving.TenantLimits{}
	if *tenantsFile != "" {
		data, err := os.ReadFile(*tenantsFile)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &overrides); err != nil {
			fatal(fmt.Errorf("parsing -tenants %s: %w", *tenantsFile, err))
		}
	}
	if *qosRate > 0 || *qosBurst > 0 || *qosInFlight > 0 || *qosPriority != "" || len(overrides) > 0 {
		qos = serving.NewQoS(serving.TenantLimits{
			RatePerSec:  *qosRate,
			Burst:       *qosBurst,
			MaxInFlight: *qosInFlight,
			Priority:    *qosPriority,
		}, overrides, eng.Metrics())
	}

	tables := len(eng.Catalog().TableNames())
	if rec := eng.Recovery(); tables > 0 {
		fmt.Fprintf(os.Stderr, "recovered %d table(s) and %d index(es) (%d from idx/ files), replayed %d WAL record(s) (%d rows) in %s\n",
			tables, len(eng.Catalog().Indexes()), rec.IndexFiles, rec.ReplayedRecords, rec.ReplayedRows, rec.Duration.Round(time.Millisecond))
	}
	// A data dir restored from an earlier run already holds the demo.
	if *demo != "" && tables > 0 {
		fmt.Fprintf(os.Stderr, "-data-dir already holds tables; -demo %s not loaded\n", *demo)
	} else if err := datagen.LoadDemo(eng.AddTable, os.Stderr, *demo, *rows, *partitions, *uniqueRate, *sortedRate); err != nil {
		fatal(err)
	}
	if *checkpointInterval > 0 {
		stopCkpt := eng.StartCheckpointer(time.Duration(*checkpointInterval) * time.Second)
		defer stopCkpt()
	}

	srv, err := server.New(server.Config{
		Addr:           *listen,
		Engine:         eng,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		DefaultTimeout: time.Duration(*timeoutMS) * time.Millisecond,
		DefaultMaxRows: *maxRows,
		EnablePprof:    *enablePprof,
		QoS:            qos,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "patchserver listening on %s (wire protocol + HTTP /metrics /stats /healthz /queries /trace/<id> /workload /indexes /tuner /timeseries /alerts)\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintf(os.Stderr, "patchserver: shutting down (draining up to %ds)...\n", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*grace)*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "patchserver: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "patchserver: bye")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "patchserver: %v\n", err)
	os.Exit(1)
}
