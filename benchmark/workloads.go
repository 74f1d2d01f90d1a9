package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"patchindex"
)

// scale sizes the workloads. fullScale is what BENCHMARK.json runs; it is
// sized so that three set-ups, the warm-up and the window of one run fit in
// about a dozen seconds on two cores. tinyScale is the smoke test's.
type scale struct {
	partitions  int
	dataRows    int // nuc-distinct, nsc-sort
	joinRows    int // nsc-join fact table
	buildRows   int // index-build
	aggRows     int // plain-agg-par
	durableRows int // durable-ingest-scan base table
	batchRows   int // durable-ingest-scan append batch
	dimRows     int // wire-point
	poolSize    int // wire-point distinct statements
}

var (
	fullScale = scale{partitions: 8, dataRows: 1_000_000, joinRows: 2_000_000, buildRows: 200_000,
		aggRows: 2_000_000, durableRows: 1_000_000, batchRows: 5_000, dimRows: 1_000_000, poolSize: 256}
	tinyScale = scale{partitions: 4, dataRows: 20_000, joinRows: 20_000, buildRows: 10_000,
		aggRows: 20_000, durableRows: 20_000, batchRows: 500, dimRows: 20_000, poolSize: 16}
)

// checkpointEvery is the durable script's checkpoint cadence in steps.
const checkpointEvery = 25

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	window  time.Duration
	sc      scale
	workdir string // scratch space for DataDir and side logs
}

// instance is a set-up workload: an engine (and server) holding its data.
type instance interface {
	// op runs primary operation i of one client, checks the result, and
	// returns the time the engine call took (checking is not timed).
	op(client, i int) (time.Duration, error)
	// traced runs the traced phase for about window and fills m.
	traced(tr *tracer, window time.Duration, m layerMetrics) error
	// finish runs the checks that need the whole run, returning how many it
	// made and how many failed.
	finish() (checks, failed int, err error)
	close()
}

// workload is one entry of BENCHMARK.json's list.
type workload struct {
	name string
	// primary says what one operation is; rowsPerOp is its input size.
	primary   string
	rowsPerOp func(sc scale) int
	clients   int
	// pace, when set, issues operation i at i*pace instead of as soon as the
	// previous one completed.
	pace time.Duration
	// setup builds a fresh instance and returns the digest of its inputs.
	// Every statement text the workload uses is executed and checked once
	// here, so an unsupported construct fails the run instead of timing an
	// error path.
	setup func(rc runConfig) (instance, string, error)
}

var workloads = []workload{
	{name: "nuc-distinct", primary: "SELECT COUNT(DISTINCT u) FROM data", clients: 1,
		rowsPerOp: func(sc scale) int { return sc.dataRows }, setup: setupNUCDistinct},
	{name: "nsc-sort", primary: "SELECT s FROM data ORDER BY s, drained", clients: 1,
		rowsPerOp: func(sc scale) int { return sc.dataRows }, setup: setupNSCSort},
	{name: "nsc-join", primary: "SELECT COUNT(*) FROM dates JOIN sales ON d_date_sk = cs_sold_date_sk", clients: 1,
		rowsPerOp: func(sc scale) int { return sc.joinRows + dateRows }, setup: setupNSCJoin},
	{name: "index-build", primary: "create+drop NUC(u), then create+drop NSC(s)", clients: 1,
		rowsPerOp: func(sc scale) int { return 2 * sc.buildRows }, setup: setupIndexBuild},
	{name: "plain-agg-par", primary: "SELECT payload, COUNT(*), SUM(u) FROM data WHERE u > c GROUP BY payload, parallelism 2", clients: 1,
		rowsPerOp: func(sc scale) int { return sc.aggRows }, setup: setupPlainAgg},
	{name: "durable-ingest-scan", primary: "paced step: Append of one batch (synced) + four cold range scans of 2 %, 5 %, 2 %, 5 %; CHECKPOINT every 25 steps", clients: 1, pace: stepInterval,
		rowsPerOp: func(sc scale) int {
			rows := sc.batchRows
			for _, share := range scanShares {
				rows += sc.durableRows / share
			}
			return rows
		}, setup: setupDurable},
	{name: "wire-point", primary: "51-row point lookup over the wire, 2 connections", clients: 2,
		rowsPerOp: func(sc scale) int { return 51 }, setup: setupWirePoint},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const dataDDL = "CREATE TABLE data (u BIGINT, s BIGINT, payload BIGINT) PARTITIONS %d"

// ---- workloads 1, 2, 3, 5: one statement against an in-memory engine ----

// queryInst repeats one SELECT. Aggregates are materialized (Exec) so every
// operation's value is checked; the sort is drained (DrainWith) and its row
// count checked, its order having been verified in set-up.
type queryInst struct {
	e     *patchindex.Engine
	query string
	opts  selectOpts
	// check verifies a materialized result; nil means drain and compare the
	// row count with drainRows.
	check     func(*patchindex.Result) error
	drainRows int
	// indexes lists the (column, nuc) PatchIndexes for discovery timing.
	table   string
	indexes []indexSpec
}

type indexSpec struct {
	column string
	nuc    bool
}

func (q *queryInst) run(o selectOpts) (time.Duration, error) {
	if q.check == nil {
		start := time.Now()
		n, err := q.e.DrainWith(q.query, o.exec())
		lat := time.Since(start)
		if err == nil && n != q.drainRows {
			err = fmt.Errorf("%s: drained %d rows, want %d", q.query, n, q.drainRows)
		}
		return lat, err
	}
	start := time.Now()
	res, err := q.e.ExecWith(q.query, o.exec())
	lat := time.Since(start)
	if err == nil {
		err = q.check(res)
	}
	return lat, err
}

func (q *queryInst) op(_, _ int) (time.Duration, error) { return q.run(q.opts) }

func (q *queryInst) finish() (int, int, error) { return 0, 0, nil }

func (q *queryInst) close() { q.e.Close() }

// sidePhaseStatements is the length of each side phase (rewrite gain,
// parallel speed-up): half the statements run each way, alternating.
const sidePhaseStatements = 20

// ratioP50 runs the statement sidePhaseStatements times, alternating between
// two option sets, and returns p50(a) / p50(b).
func (q *queryInst) ratioP50(a, b selectOpts) (float64, error) {
	var la, lb []float64
	for i := 0; i < sidePhaseStatements/2; i++ {
		da, err := q.run(a)
		if err != nil {
			return 0, err
		}
		db, err := q.run(b)
		if err != nil {
			return 0, err
		}
		la, lb = append(la, float64(da)), append(lb, float64(db))
	}
	return median(la) / median(lb), nil
}

func (q *queryInst) traced(tr *tracer, window time.Duration, m layerMetrics) error {
	// Untraced and traced statements alternate, so that both see the same
	// host and heap when their medians are compared.
	var counts opCounts
	untraced, err := timedLoop(window, func(i int) (time.Duration, error) {
		c, err := tracedSelect(tr, q.e, q.query, q.opts)
		if err != nil {
			return 0, err
		}
		counts = c
		return q.op(0, i)
	})
	if err != nil {
		return err
	}
	m.fromSelectSpans(tr, counts)
	m["trace_overhead_pct"] = overheadPct(tr.medianDur("statement", 1e6), median(untraced))

	// Rewrites off over rewrites on, and serial over two workers. Both
	// compare like with like, so the workload's own parallelism applies to
	// the first and its own rewrites to the second.
	off, serial, parallel := q.opts, q.opts, q.opts
	off.noRewrites = true
	serial.parallelism, parallel.parallelism = 1, 2
	if m["plan.rewrite_gain_x"], err = q.ratioP50(off, q.opts); err != nil {
		return err
	}
	if m["exec.par_speedup_x"], err = q.ratioP50(serial, parallel); err != nil {
		return err
	}
	for _, ix := range q.indexes {
		ms, err := discoveryBuildMs(q.e, q.table, ix.column, ix.nuc)
		if err != nil {
			return err
		}
		m[discoveryMetric(ix.nuc)] = ms
	}
	m.fromIndexes(indexInfos(q.e))
	return nil
}

func discoveryMetric(nuc bool) string {
	if nuc {
		return "discovery.nuc_build_ms"
	}
	return "discovery.nsc_build_ms"
}

// newDataEngine creates an in-memory engine holding data(u, s, payload).
func newDataEngine(rc runConfig, rows, jitter int) (*patchindex.Engine, *dataTable, error) {
	d := genData(rc.seed, rows, rc.sc.partitions, jitter)
	e, err := patchindex.New(patchindex.Config{})
	if err != nil {
		return nil, nil, err
	}
	if _, err := e.Exec(fmt.Sprintf(dataDDL, rc.sc.partitions)); err != nil {
		e.Close()
		return nil, nil, err
	}
	if err := loadTable(e, "data", d.parts); err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, d, nil
}

// sameWithoutRewrites checks that the statement returns the same rows, in the
// same order, with PatchIndex rewrites on and off, and that the rewrite-on
// result passes check.
func sameWithoutRewrites(e *patchindex.Engine, query string, o selectOpts, check func(*patchindex.Result) error) error {
	hash := func(o selectOpts) (uint64, error) {
		res, err := e.ExecWith(query, o.exec())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", query, err)
		}
		if err := check(res); err != nil {
			return 0, err
		}
		d := newDigest()
		for _, row := range res.Rows {
			for _, v := range row {
				d.ints([]int64{v.I64})
			}
		}
		return uint64(d), nil
	}
	on, err := hash(o)
	if err != nil {
		return err
	}
	o.noRewrites = true
	off, err := hash(o)
	if err != nil {
		return err
	}
	if on != off {
		return fmt.Errorf("%s: result differs with PatchIndex rewrites off", query)
	}
	return nil
}

func digestOf(query string, tables ...func(*digest)) string {
	d := newDigest()
	for _, t := range tables {
		t(&d)
	}
	d.str(query)
	return fmt.Sprintf("%016x", uint64(d))
}

func partsDigest(parts []part) func(*digest) {
	return func(d *digest) {
		for _, p := range parts {
			for _, c := range p {
				d.ints(c)
			}
		}
	}
}

func oneCell(want int64) func(*patchindex.Result) error {
	return func(res *patchindex.Result) error {
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			return fmt.Errorf("want one cell, got %d rows", len(res.Rows))
		}
		if got := intCell(res, 0, 0); got != want {
			return fmt.Errorf("got %d, want %d", got, want)
		}
		return nil
	}
}

func setupNUCDistinct(rc runConfig) (instance, string, error) {
	e, d, err := newDataEngine(rc, rc.sc.dataRows, 0)
	if err != nil {
		return nil, "", err
	}
	q := &queryInst{e: e, query: "SELECT COUNT(DISTINCT u) FROM data", opts: selectOpts{parallelism: 1},
		check: oneCell(int64(d.distinctU)), table: "data", indexes: []indexSpec{{"u", true}}}
	if _, err := createIndex(e, "data", "u", true); err != nil {
		e.Close()
		return nil, "", err
	}
	if err := sameWithoutRewrites(e, q.query, q.opts, q.check); err != nil {
		e.Close()
		return nil, "", err
	}
	return q, digestOf(q.query, partsDigest(d.parts)), nil
}

func setupNSCSort(rc runConfig) (instance, string, error) {
	e, d, err := newDataEngine(rc, rc.sc.dataRows, 0)
	if err != nil {
		return nil, "", err
	}
	q := &queryInst{e: e, query: "SELECT s FROM data ORDER BY s", opts: selectOpts{parallelism: 1},
		drainRows: d.rows, table: "data", indexes: []indexSpec{{"s", false}}}
	if _, err := createIndex(e, "data", "s", false); err != nil {
		e.Close()
		return nil, "", err
	}
	sorted := func(res *patchindex.Result) error {
		if len(res.Rows) != d.rows {
			return fmt.Errorf("sort returned %d rows, want %d", len(res.Rows), d.rows)
		}
		var sum int64
		for i := range res.Rows {
			v := intCell(res, i, 0)
			if i > 0 && v < intCell(res, i-1, 0) {
				return fmt.Errorf("sort output decreases at row %d", i)
			}
			sum += v
		}
		if sum != d.sumS {
			return fmt.Errorf("sort output sums to %d, want %d", sum, d.sumS)
		}
		return nil
	}
	if err := sameWithoutRewrites(e, q.query, q.opts, sorted); err != nil {
		e.Close()
		return nil, "", err
	}
	return q, digestOf(q.query, partsDigest(d.parts)), nil
}

func setupNSCJoin(rc runConfig) (instance, string, error) {
	e, err := patchindex.New(patchindex.Config{})
	if err != nil {
		return nil, "", err
	}
	dates, sales := genDates(), genSales(rc.seed, rc.sc.joinRows, rc.sc.partitions)
	q := &queryInst{e: e, query: "SELECT COUNT(*) FROM dates JOIN sales ON d_date_sk = cs_sold_date_sk",
		opts: selectOpts{parallelism: 1}, check: oneCell(int64(rc.sc.joinRows)),
		table: "sales", indexes: []indexSpec{{"cs_sold_date_sk", false}}}
	err = func() error {
		if _, err := e.Exec("CREATE TABLE dates (d_date_sk BIGINT, d_year BIGINT) SORTKEY d_date_sk"); err != nil {
			return err
		}
		ddl := fmt.Sprintf("CREATE TABLE sales (cs_sold_date_sk BIGINT, cs_item_sk BIGINT, cs_quantity BIGINT) PARTITIONS %d", rc.sc.partitions)
		if _, err := e.Exec(ddl); err != nil {
			return err
		}
		if err := loadTable(e, "dates", []part{dates}); err != nil {
			return err
		}
		if err := loadTable(e, "sales", sales); err != nil {
			return err
		}
		if _, err := createIndex(e, "sales", "cs_sold_date_sk", false); err != nil {
			return err
		}
		return sameWithoutRewrites(e, q.query, q.opts, q.check)
	}()
	if err != nil {
		e.Close()
		return nil, "", err
	}
	return q, digestOf(q.query, partsDigest([]part{dates}), partsDigest(sales)), nil
}

func setupPlainAgg(rc runConfig) (instance, string, error) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		return nil, "", errors.New("plain-agg-par needs 2 CPUs: it is the only workload that measures Exchange/ParallelAgg on more than one core")
	}
	e, d, err := newDataEngine(rc, rc.sc.aggRows, 0)
	if err != nil {
		return nil, "", err
	}
	// u > c passes about three quarters of the unique rows and none of the
	// pooled exceptions.
	c := int64(poolSize(d.rows) + d.rows/4)
	var wantRows, wantSum int64
	groups := map[int64]bool{}
	for _, p := range d.parts {
		for i, u := range p[0] {
			if u > c {
				wantRows++
				wantSum += u
				groups[p[2][i]] = true
			}
		}
	}
	check := func(res *patchindex.Result) error {
		var rows, sum int64
		for i := range res.Rows {
			rows += intCell(res, i, 1)
			sum += intCell(res, i, 2)
		}
		if len(res.Rows) != len(groups) || rows != wantRows || sum != wantSum {
			return fmt.Errorf("group-by returned %d groups / %d rows / sum %d, want %d / %d / %d",
				len(res.Rows), rows, sum, len(groups), wantRows, wantSum)
		}
		return nil
	}
	q := &queryInst{e: e, query: fmt.Sprintf("SELECT payload, COUNT(*), SUM(u) FROM data WHERE u > %d GROUP BY payload", c),
		opts: selectOpts{parallelism: 2}, check: check, table: "data"}
	if _, err := q.op(0, 0); err != nil {
		e.Close()
		return nil, "", err
	}
	return q, digestOf(q.query, partsDigest(d.parts)), nil
}

// ---- workload 4: index-build ----

type buildInst struct {
	e *patchindex.Engine
	// wantNUC and wantNSC are the patch counts of the first build, which
	// set-up validated against the generator through a rewritten query;
	// every later build must reproduce them.
	wantNUC, wantNSC int
}

func (b *buildInst) cycle(column string, nuc bool, want int) (time.Duration, error) {
	start := time.Now()
	info, err := createIndex(b.e, "data", column, nuc)
	if err != nil {
		return 0, err
	}
	if err := b.e.DropPatchIndex("data", column); err != nil {
		return 0, err
	}
	lat := time.Since(start)
	if info.cardinality != want {
		return lat, fmt.Errorf("index on %s has %d patches, want %d", column, info.cardinality, want)
	}
	return lat, nil
}

func (b *buildInst) op(_, _ int) (time.Duration, error) {
	nuc, err := b.cycle("u", true, b.wantNUC)
	if err != nil {
		return 0, err
	}
	nsc, err := b.cycle("s", false, b.wantNSC)
	return nuc + nsc, err
}

func (b *buildInst) traced(tr *tracer, window time.Duration, m layerMetrics) error {
	var nucMs, nscMs []float64
	untraced, err := timedLoop(window, func(i int) (time.Duration, error) {
		if err := b.tracedCycle(tr, &nucMs, &nscMs); err != nil {
			return 0, err
		}
		return b.op(0, i)
	})
	if err != nil {
		return err
	}
	m["discovery.nuc_build_ms"], m["discovery.nsc_build_ms"] = median(nucMs), median(nscMs)
	// The creates and drops are the cycle; the bare builds are extra.
	cycle := tr.medianDur("Engine.CreatePatchIndex", 1e6) + tr.medianDur("Engine.DropPatchIndex", 1e6)
	m["trace_overhead_pct"] = overheadPct(cycle, median(untraced))
	if _, err := createIndex(b.e, "data", "u", true); err != nil {
		return err
	}
	if _, err := createIndex(b.e, "data", "s", false); err != nil {
		return err
	}
	m.fromIndexes(indexInfos(b.e))
	return nil
}

// tracedCycle is one cycle with a span around each engine call, followed by
// the same two builds without the engine around them.
func (b *buildInst) tracedCycle(tr *tracer, nucMs, nscMs *[]float64) error {
	root := tr.beginStmt("index-build cycle")
	defer tr.endStmt(root)
	for _, ix := range []indexSpec{{"u", true}, {"s", false}} {
		sp := tr.begin("Engine.CreatePatchIndex", ix.column, root)
		_, err := createIndex(b.e, "data", ix.column, ix.nuc)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("Engine.DropPatchIndex", ix.column, root)
		err = b.e.DropPatchIndex("data", ix.column)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	for _, ix := range []struct {
		indexSpec
		ms *[]float64
	}{{indexSpec{"u", true}, nucMs}, {indexSpec{"s", false}, nscMs}} {
		sp := tr.begin("discovery.BuildIndex", ix.column, root)
		ms, err := discoveryBuildMs(b.e, "data", ix.column, ix.nuc)
		tr.end(sp)
		if err != nil {
			return err
		}
		*ix.ms = append(*ix.ms, ms)
	}
	return nil
}

func (b *buildInst) finish() (int, int, error) { return 0, 0, nil }

func (b *buildInst) close() { b.e.Close() }

func setupIndexBuild(rc runConfig) (instance, string, error) {
	e, d, err := newDataEngine(rc, rc.sc.buildRows, 0)
	if err != nil {
		return nil, "", err
	}
	b := &buildInst{e: e}
	err = func() error {
		nuc, err := createIndex(e, "data", "u", true)
		if err != nil {
			return err
		}
		nsc, err := createIndex(e, "data", "s", false)
		if err != nil {
			return err
		}
		b.wantNUC, b.wantNSC = nuc.cardinality, nsc.cardinality
		// A wrong patch set makes the rewritten plans return wrong answers.
		if err := sameWithoutRewrites(e, "SELECT COUNT(DISTINCT u) FROM data", selectOpts{}, oneCell(int64(d.distinctU))); err != nil {
			return err
		}
		if err := sameWithoutRewrites(e, "SELECT s FROM data ORDER BY s LIMIT 1000", selectOpts{}, func(*patchindex.Result) error { return nil }); err != nil {
			return err
		}
		if err := e.DropPatchIndex("data", "u"); err != nil {
			return err
		}
		return e.DropPatchIndex("data", "s")
	}()
	if err != nil {
		e.Close()
		return nil, "", err
	}
	return b, digestOf("index-build", partsDigest(d.parts)), nil
}

// ---- workload 6: durable-ingest-scan ----

// The table's sortedness exceptions are late arrivals (at most lateJitter
// positions), not random values: a batch that arrives in time order with a
// few stragglers. Block min/max stay tight, so the range scans prune and the
// engine takes its decode-from-compressed path; with random exceptions every
// block spans the whole key range and every scan faults in every partition.
const lateJitter = 1000

// stepInterval paces the ingest (workload.pace): batches arrive on a schedule,
// as data does, and a step's latency counts from when it was due. The table
// therefore grows by the same rows in every run of a given length, whatever
// the engine's speed, until the engine cannot keep up.
const stepInterval = 100 * time.Millisecond

// scanShares are the widths of a step's scans as divisors of the loaded rows:
// 2 % stays under the quarter of a partition up to which the engine decodes
// ranges straight from the compressed segment; 5 % is over it, so the column
// is faulted into the cache, which then evicts. Four scans, not two: the
// append's fsync takes 0.6 to 1.8 ms depending on what else the disk is
// doing, and has to stay a small part of the step for p50_ms to repeat.
var scanShares = [4]int{50, 20, 50, 20}

type durableInst struct {
	e    *patchindex.Engine
	rc   runConfig
	dir  string
	last int // partition that receives the appends
	// Generator-side state of the table: what every acknowledged append
	// added, for the scan oracle and the crash-copy check.
	sVals                  *rangeCounter
	rows                   int64
	sumU, sumS, sumPayload int64
	steps                  int
	// Per-step and per-checkpoint times since the last reset, for the stall
	// metric.
	stepMs, checkpointMs []float64
	firstPart            part
}

const durableScan = "SELECT COUNT(*) FROM data WHERE s >= %d AND s <= %d"

func (d *durableInst) ack(b part) {
	for i := range b[0] {
		d.sumU += b[0][i]
		d.sumS += b[1][i]
		d.sumPayload += b[2][i]
		d.sVals.add(b[1][i])
	}
	d.rows += int64(len(b[0]))
}

// scanRange is scan k of a step. The scans walk the loaded partitions in
// turn (all but the last, which the appends keep resident) and start a
// quarter into the partition, so no range straddles two partitions and a wide
// scan finds the column it needs evicted by the ones before it: every step
// does the same work.
func (d *durableInst) scanRange(step, k int) (a, b int64) {
	per := d.rc.sc.durableRows / d.rc.sc.partitions
	partition := (step*len(scanShares) + k) % (d.rc.sc.partitions - 1)
	a = int64(partition*per + per/4)
	return a, a + int64(d.rc.sc.durableRows/scanShares[k]) - 1
}

// durableCalls are the three engine calls of a step; the traced run wraps
// them in spans.
type durableCalls struct {
	appendBatch func(part) error
	// scan runs one range count and returns it with the time the engine took.
	scan       func(q string) (int64, time.Duration, error)
	checkpoint func() error
}

// step is one primary operation: append a batch, scan twice, and checkpoint
// after every checkpointEvery-th.
func (d *durableInst) step(c durableCalls) (time.Duration, error) {
	i := d.steps
	d.steps++
	batch := appendBatch(d.rc.seed, d.rc.sc.durableRows, i, d.rc.sc.batchRows, lateJitter)
	start := time.Now()
	if err := c.appendBatch(batch); err != nil {
		return 0, err
	}
	lat := time.Since(start)
	d.ack(batch)
	for k := range scanShares {
		a, b := d.scanRange(i, k)
		got, scanLat, err := c.scan(fmt.Sprintf(durableScan, a, b))
		lat += scanLat
		if err != nil {
			return lat, err
		}
		if want := d.sVals.count(a, b); got != want {
			return lat, fmt.Errorf("step %d: %d rows with s in [%d,%d], want %d", i, got, a, b, want)
		}
	}
	if d.steps%checkpointEvery == 0 {
		start = time.Now()
		err := c.checkpoint()
		ck := time.Since(start)
		lat += ck
		d.checkpointMs = append(d.checkpointMs, float64(ck)/1e6)
		if err != nil {
			return lat, err
		}
	}
	d.stepMs = append(d.stepMs, float64(lat)/1e6)
	return lat, nil
}

func (d *durableInst) plain() durableCalls {
	return durableCalls{
		appendBatch: func(b part) error { return appendPart(d.e, "data", d.last, b) },
		scan: func(q string) (int64, time.Duration, error) {
			start := time.Now()
			res, err := d.e.Exec(q)
			lat := time.Since(start)
			if err != nil {
				return 0, lat, err
			}
			return intCell(res, 0, 0), lat, nil
		},
		checkpoint: func() error {
			_, err := d.e.Checkpoint()
			return err
		},
	}
}

func (d *durableInst) op(_, _ int) (time.Duration, error) { return d.step(d.plain()) }

// finish is the durability check: copy DataDir as it is — engine open, no
// checkpoint — open the copy, and require every acknowledged append to be
// readable.
func (d *durableInst) finish() (int, int, error) {
	if _, _, err := d.reopenCopy(); err != nil {
		return 1, 1, err
	}
	return 1, 0, nil
}

func (d *durableInst) reopenCopy() (restartMs, replayMs float64, err error) {
	dst := d.dir + "-copy"
	defer os.RemoveAll(dst)
	if err := copyTree(d.dir, dst); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	e2, err := patchindex.New(patchindex.Config{DataDir: dst, CacheBytes: d.cacheBytes()})
	if err != nil {
		return 0, 0, fmt.Errorf("reopen crash copy: %w", err)
	}
	defer e2.Close()
	restartMs = msSince(start)
	replayMs = float64(e2.Recovery().Duration) / 1e6
	res, err := e2.Exec("SELECT COUNT(*), SUM(u), SUM(s), SUM(payload) FROM data")
	if err != nil {
		return 0, 0, err
	}
	got := [4]int64{intCell(res, 0, 0), intCell(res, 0, 1), intCell(res, 0, 2), intCell(res, 0, 3)}
	want := [4]int64{d.rows, d.sumU, d.sumS, d.sumPayload}
	if got != want {
		return 0, 0, fmt.Errorf("crash copy holds count/sums %v, acknowledged %v", got, want)
	}
	return restartMs, replayMs, nil
}

// cacheBytes is a quarter of the loaded table, decoded.
func (d *durableInst) cacheBytes() int64 { return int64(d.rc.sc.durableRows) * 3 * 8 / 4 }

// tracedSteps is the traced script's length: a fixed number of steps (three
// checkpoint intervals, unpaced), so that its counts repeat exactly.
const tracedSteps = 3 * checkpointEvery

func (d *durableInst) traced(tr *tracer, _ time.Duration, m layerMetrics) error {
	d.stepMs, d.checkpointMs = nil, nil
	before := cacheStats(d.e)
	var counts opCounts
	spanned := durableCalls{
		appendBatch: func(b part) error {
			root := tr.beginStmt("Engine.Append")
			defer tr.endStmt(root)
			return appendPart(d.e, "data", d.last, b)
		},
		scan: func(q string) (int64, time.Duration, error) {
			start := time.Now()
			c, err := tracedSelect(tr, d.e, q, selectOpts{})
			lat := time.Since(start)
			if err != nil {
				return 0, lat, err
			}
			counts.coldRows += c.coldRows
			counts.scanRows, counts.rowsOut = c.scanRows, c.rowsOut
			// The traced path drains without materializing, so the count to
			// check comes from a second, untimed execution.
			got, _, err := d.plain().scan(q)
			return got, lat, err
		},
		checkpoint: func() error {
			root := tr.beginStmt("Engine.Checkpoint")
			defer tr.endStmt(root)
			return d.plain().checkpoint()
		},
	}
	// Odd steps run untraced, so both kinds see the same table and cache.
	var tracedMs, untracedMs []float64
	for i := 0; i < tracedSteps; i++ {
		calls, into := spanned, &tracedMs
		if i%2 == 1 {
			calls, into = d.plain(), &untracedMs
		}
		lat, err := d.step(calls)
		if err != nil {
			return err
		}
		*into = append(*into, float64(lat)/1e6)
	}
	after := cacheStats(d.e)
	m.fromSelectSpans(tr, counts)
	m["trace_overhead_pct"] = overheadPct(median(tracedMs), median(untracedMs))
	m["compress.range_decoded_rows"] = float64(counts.coldRows)
	m["storage.checkpoint_ms"] = median(d.checkpointMs)
	var stalls []float64
	for i := 0; i+checkpointEvery <= len(d.stepMs); i += checkpointEvery {
		interval := append([]float64(nil), d.stepMs[i:i+checkpointEvery]...)
		sort.Float64s(interval)
		stalls = append(stalls, interval[len(interval)-1]-quantile(interval, 0.5))
	}
	m["storage.checkpoint_stall_ms"] = median(stalls)
	if lookups := after.hits - before.hits + after.misses - before.misses; lookups > 0 {
		m["storage.cache_hit_rate"] = float64(after.hits-before.hits) / float64(lookups)
	}
	m["storage.evictions"] = float64(after.evictions - before.evictions)
	m["storage.segment_bytes_per_user_byte"] = segmentBytesPerUserByte(d.e, "data")
	m.fromIndexes(indexInfos(d.e))

	restart, replay, err := d.reopenCopy()
	if err != nil {
		return err
	}
	m["storage.restart_ms"], m["wal.replay_ms"] = restart, replay
	return d.writeLayers(tr, m)
}

// writeLayers times the write-side layers on their own — index maintenance,
// the log, the column codec — against a side engine and a side log, so the
// measured engine's table is left alone.
func (d *durableInst) writeLayers(tr *tracer, m layerMetrics) error {
	var batches []part
	for i := 0; i < 10; i++ {
		batches = append(batches, appendBatch(d.rc.seed, d.rc.sc.durableRows, i, d.rc.sc.batchRows, lateJitter))
	}
	side, _, err := newDataEngine(d.rc, d.rc.sc.durableRows, lateJitter)
	if err != nil {
		return err
	}
	defer side.Close()
	for _, ix := range []indexSpec{{"u", true}, {"s", false}} {
		if _, err := createIndex(side, "data", ix.column, ix.nuc); err != nil {
			return err
		}
		if m[discoveryMetric(ix.nuc)], err = discoveryBuildMs(side, "data", ix.column, ix.nuc); err != nil {
			return err
		}
	}
	ms, err := maintainAppendMs(side, "data", d.last, batches)
	if err != nil {
		return err
	}
	m["maintain.append_ms"] = median(ms)

	sideDir, err := os.MkdirTemp(d.rc.workdir, "side-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sideDir)
	ms, perByte, err := walAppend(tr, filepath.Join(sideDir, "side.wal"), "data", batches)
	if err != nil {
		return err
	}
	m["wal.append_ms"], m["wal.bytes_per_user_byte"] = median(ms), perByte
	m["compress.encode_mb_s"], m["compress.decode_mb_s"], err = compressRates(tr, d.firstPart, 1)
	return err
}

func (d *durableInst) close() {
	d.e.Close()
	os.RemoveAll(d.dir)
}

func setupDurable(rc runConfig) (instance, string, error) {
	dir, err := os.MkdirTemp(rc.workdir, "durable-")
	if err != nil {
		return nil, "", err
	}
	data := genData(rc.seed, rc.sc.durableRows, rc.sc.partitions, lateJitter)
	d := &durableInst{rc: rc, dir: dir, last: len(data.parts) - 1, sVals: newRangeCounter(rc.sc.durableRows), firstPart: data.parts[0]}
	d.e, err = patchindex.New(patchindex.Config{DataDir: dir, CacheBytes: d.cacheBytes()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	err = func() error {
		if _, err := d.e.Exec(fmt.Sprintf(dataDDL, rc.sc.partitions)); err != nil {
			return err
		}
		if err := loadTable(d.e, "data", data.parts); err != nil {
			return err
		}
		for _, p := range data.parts {
			d.ack(p)
		}
		if _, err := createIndex(d.e, "data", "u", true); err != nil {
			return err
		}
		if _, err := createIndex(d.e, "data", "s", false); err != nil {
			return err
		}
		if err := d.plain().checkpoint(); err != nil {
			return err
		}
		// One unmeasured step: the first Append after an index change scans
		// the table to build the maintenance state.
		_, err := d.step(d.plain())
		return err
	}()
	if err != nil {
		d.close()
		return nil, "", err
	}
	return d, digestOf(durableScan, partsDigest(data.parts)), nil
}

// copyTree copies a directory of regular files and directories.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// ---- workload 7: wire-point ----

type wireInst struct {
	e    *patchindex.Engine
	w    *wire
	rc   runConfig
	pool []string // statement texts
	want []int64  // payload sum of each statement's 51 rows
}

const wirePointSQL = "SELECT payload FROM dim WHERE k >= %d AND k <= %d"

func (w *wireInst) checkRows(i int, rows [][]string) error {
	if len(rows) != 51 {
		return fmt.Errorf("%s: %d rows, want 51", w.pool[i], len(rows))
	}
	var sum int64
	for _, r := range rows {
		v, err := strconv.ParseInt(r[0], 10, 64)
		if err != nil {
			return err
		}
		sum += v
	}
	if sum != w.want[i] {
		return fmt.Errorf("%s: payload sum %d, want %d", w.pool[i], sum, w.want[i])
	}
	return nil
}

func (w *wireInst) stmt(client, i int) int {
	return (i + client*len(w.pool)/2) % len(w.pool)
}

func (w *wireInst) op(client, i int) (time.Duration, error) {
	s := w.stmt(client, i)
	start := time.Now()
	rows, err := w.w.query(client, w.pool[s])
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	return lat, w.checkRows(s, rows)
}

func (w *wireInst) execInProcess(e *patchindex.Engine, s int) (time.Duration, error) {
	start := time.Now()
	res, err := e.Exec(w.pool[s])
	lat := time.Since(start)
	if err == nil && len(res.Rows) != 51 {
		err = fmt.Errorf("%s: %d rows in process, want 51", w.pool[s], len(res.Rows))
	}
	return lat, err
}

func (w *wireInst) traced(tr *tracer, window time.Duration, m layerMetrics) error {
	// Each round takes one statement three ways: layer by layer, through
	// Engine.Exec, and over the wire.
	var counts opCounts
	var inproc []float64
	_, err := timedLoop(window, func(i int) (time.Duration, error) {
		s := w.stmt(0, i)
		c, err := tracedSelect(tr, w.e, w.pool[s], selectOpts{})
		if err != nil {
			return 0, err
		}
		counts = c
		lat, err := w.execInProcess(w.e, s)
		if err != nil {
			return 0, err
		}
		inproc = append(inproc, float64(lat))
		root := tr.beginStmt("server.Client.Query")
		rows, err := w.w.query(0, w.pool[s])
		tr.endStmt(root)
		if err != nil {
			return 0, err
		}
		return 0, w.checkRows(s, rows)
	})
	if err != nil {
		return err
	}
	m.fromSelectSpans(tr, counts)
	m["trace_overhead_pct"] = overheadPct(tr.medianDur("statement", 1), median(inproc))
	m["server.wire_overhead_us"] = (tr.medianDur("server.Client.Query", 1) - median(inproc)) / 1e3
	pc := w.e.ServingStats().PlanCache
	if pc.Hits+pc.Misses > 0 {
		m["serving.plan_cache_hit_rate"] = float64(pc.Hits) / float64(pc.Hits+pc.Misses)
	}
	m["plan.rewrite_gain_x"] = 1 // no PatchIndex exists here

	// Everything the engine can observe about itself, switched on.
	allOn, err := newDimEngine(w.rc, patchindex.Config{PlanCache: true, WorkloadProfile: true, TraceSample: 1},
		genDim(w.rc.seed, w.rc.sc.dimRows, w.rc.sc.partitions))
	if err != nil {
		return err
	}
	defer allOn.Close()
	var off, on []float64
	_, err = timedLoop(window/4, func(i int) (time.Duration, error) {
		s := w.stmt(0, i)
		a, err := w.execInProcess(w.e, s)
		if err != nil {
			return 0, err
		}
		b, err := w.execInProcess(allOn, s)
		off, on = append(off, float64(a)), append(on, float64(b))
		return 0, err
	})
	if err != nil {
		return err
	}
	m["obs.all_on_overhead_pct"] = overheadPct(median(on), median(off))
	return nil
}

func (w *wireInst) finish() (int, int, error) { return 0, 0, nil }

func (w *wireInst) close() {
	w.w.close()
	w.e.Close()
}

func newDimEngine(rc runConfig, cfg patchindex.Config, dim []part) (*patchindex.Engine, error) {
	e, err := patchindex.New(cfg)
	if err != nil {
		return nil, err
	}
	ddl := fmt.Sprintf("CREATE TABLE dim (k BIGINT, payload BIGINT) PARTITIONS %d SORTKEY k", rc.sc.partitions)
	if _, err := e.Exec(ddl); err != nil {
		e.Close()
		return nil, err
	}
	if err := loadTable(e, "dim", dim); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

func setupWirePoint(rc runConfig) (instance, string, error) {
	// patchserver's defaults: plan cache on, result cache off.
	dim := genDim(rc.seed, rc.sc.dimRows, rc.sc.partitions)
	e, err := newDimEngine(rc, patchindex.Config{PlanCache: true}, dim)
	if err != nil {
		return nil, "", err
	}
	w := &wireInst{e: e, rc: rc}
	r := newRNG(rc.seed, 9000)
	seen := map[int]bool{}
	d := newDigest()
	partsDigest(dim)(&d)
	for len(w.pool) < rc.sc.poolSize {
		x := r.intn(rc.sc.dimRows - 51)
		if seen[x] {
			continue
		}
		seen[x] = true
		w.pool = append(w.pool, fmt.Sprintf(wirePointSQL, x, x+50))
		var sum int64
		for k := x; k <= x+50; k++ {
			sum += dimPayload(rc.seed, int64(k))
		}
		w.want = append(w.want, sum)
		d.str(w.pool[len(w.pool)-1])
	}
	if w.w, err = startWire(e, 2); err != nil {
		e.Close()
		return nil, "", err
	}
	for c := range w.w.clients {
		for i := range w.pool {
			if _, err := w.op(c, i); err != nil {
				w.close()
				return nil, "", err
			}
		}
	}
	return w, fmt.Sprintf("%016x", uint64(d)), nil
}
