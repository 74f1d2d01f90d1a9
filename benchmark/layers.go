package main

// Every call the benchmark makes into internal/* lives in this file, so the
// set of signatures the benchmark freezes is readable in one place (it is
// listed in README.md). The end-to-end runs use only the Engine and the wire
// client/server; the traced run additionally walks a statement through the
// same steps Engine.DrainWith takes, one call at a time, with a span around
// each.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"patchindex"
	"patchindex/internal/compress"
	"patchindex/internal/discovery"
	"patchindex/internal/exec"
	"patchindex/internal/maintain"
	"patchindex/internal/patch"
	"patchindex/internal/plan"
	"patchindex/internal/server"
	"patchindex/internal/sql"
	"patchindex/internal/vector"
	"patchindex/internal/wal"
)

func toVectors(p part) []*vector.Vector {
	vs := make([]*vector.Vector, len(p))
	for i, c := range p {
		vs[i] = vector.NewFromInt64(c)
	}
	return vs
}

// loadTable bulk-loads generated partitions (no index maintenance).
func loadTable(e *patchindex.Engine, table string, parts []part) error {
	for p, cols := range parts {
		if err := e.LoadColumns(table, p, toVectors(cols)); err != nil {
			return fmt.Errorf("load %s.p%d: %w", table, p, err)
		}
	}
	return nil
}

// appendPart is Engine.Append: index maintenance plus, on a durable engine,
// one synced WAL record.
func appendPart(e *patchindex.Engine, table string, partition int, p part) error {
	return e.Append(table, partition, toVectors(p))
}

// indexInfo is the space side of a PatchIndex (paper §VII-B3).
type indexInfo struct {
	rows, cardinality, bytes int
	rate                     float64
}

func constraintOf(nuc bool) patch.Constraint {
	if nuc {
		return patch.NearlyUnique
	}
	return patch.NearlySorted
}

// buildOpts is what every index in the benchmark is created with: the auto
// representation (the paper's 1/64 rule) and no qualification threshold.
var buildOpts = discovery.BuildOptions{Kind: patch.Auto, Threshold: 1}

func infoOf(ix *patch.Index) indexInfo {
	return indexInfo{rows: ix.NumRows(), cardinality: ix.Cardinality(), bytes: ix.MemoryBytes(), rate: ix.ExceptionRate()}
}

func createIndex(e *patchindex.Engine, table, column string, nuc bool) (indexInfo, error) {
	ix, err := e.CreatePatchIndex(table, column, constraintOf(nuc), buildOpts)
	if err != nil {
		return indexInfo{}, fmt.Errorf("create index %s(%s): %w", table, column, err)
	}
	return infoOf(ix), nil
}

// indexInfos sums the engine's PatchIndexes.
func indexInfos(e *patchindex.Engine) indexInfo {
	var sum indexInfo
	for _, ix := range e.Catalog().Indexes() {
		in := infoOf(ix)
		sum.rows += in.rows
		sum.cardinality += in.cardinality
		sum.bytes += in.bytes
	}
	if sum.rows > 0 {
		sum.rate = float64(sum.cardinality) / float64(sum.rows)
	}
	return sum
}

// discoveryBuildMs times discovery.BuildIndex alone (discovery plus patch
// set construction, without the engine's catalog, latch and WAL work).
func discoveryBuildMs(e *patchindex.Engine, table, column string, nuc bool) (float64, error) {
	t, err := e.Catalog().Table(table)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = discovery.BuildIndex(t, column, constraintOf(nuc), buildOpts)
	return msSince(start), err
}

// selectOpts are the per-statement switches the benchmark uses.
type selectOpts struct {
	noRewrites  bool
	parallelism int
}

func (o selectOpts) exec() patchindex.ExecOptions {
	return patchindex.ExecOptions{DisablePatchRewrites: o.noRewrites, Parallelism: o.parallelism}
}

// opCounts are the row counts of one drained operator tree.
type opCounts struct {
	rowsOut, scanRows, coldRows int64
}

// tracedSelect runs one SELECT through sql.Parse → Binder.BindSelect →
// Optimizer.Optimize → plan.Build → exec.DrainContext, a span around each and
// one child span per operator of the drained tree.
func tracedSelect(tr *tracer, e *patchindex.Engine, query string, o selectOpts) (opCounts, error) {
	root := tr.beginStmt("statement")
	defer tr.endStmt(root)

	sp := tr.begin("sql.Parse", "", root)
	stmt, err := sql.Parse(query)
	tr.end(sp)
	if err != nil {
		return opCounts{}, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return opCounts{}, fmt.Errorf("not a SELECT: %s", query)
	}

	sp = tr.begin("Binder.BindSelect", "", root)
	node, err := (&sql.Binder{Cat: e.Catalog()}).BindSelect(sel)
	tr.end(sp)
	if err != nil {
		return opCounts{}, err
	}

	sp = tr.begin("Optimizer.Optimize", "", root)
	node, err = (&plan.Optimizer{Cat: e.Catalog(), DisablePatchRewrites: o.noRewrites}).Optimize(node)
	tr.end(sp)
	if err != nil {
		return opCounts{}, err
	}

	par := o.parallelism
	if par < 1 {
		par = 1
	}
	sp = tr.begin("plan.Build", "", root)
	op, err := plan.Build(node, plan.Config{Parallelism: par})
	tr.end(sp)
	if err != nil {
		return opCounts{}, err
	}

	sp = tr.begin("exec.DrainContext", "", root)
	n, err := exec.DrainContext(context.Background(), op)
	tr.end(sp)
	if err != nil {
		return opCounts{}, err
	}
	// The statement ends here; walking the tree for its operator spans is
	// the tracer's work, not the engine's.
	tr.end(root)
	c := opCounts{rowsOut: int64(n)}
	addOpSpans(tr, sp, tr.spanStart(sp), op, &c)
	return c, nil
}

// opKinds maps an operator's Name() prefix to its exec.self_ms.<kind>; the
// empty prefix catches the rest (Union, Project, Limit).
var opKinds = []struct{ prefix, kind string }{
	{"Scan", "scan"}, {"PatchSelect", "patchselect"}, {"Filter", "filter"},
	{"HashAgg", "agg"}, {"Distinct", "agg"}, {"ParallelAgg", "agg"},
	{"Sort", "sort"}, {"MergeUnion", "mergeunion"}, {"MergeJoin", "mergejoin"},
	{"HashJoin", "hashjoin"}, {"LeftOuterHashJoin", "hashjoin"}, {"Exchange", "exchange"},
	{"", "other"},
}

func opKind(name string) string {
	for _, k := range opKinds {
		if strings.HasPrefix(name, k.prefix) {
			return k.kind
		}
	}
	panic("unreachable: the empty prefix matches every name")
}

// opNanos is an operator's time including its children. OpStats means it
// that way, but an operator that does not time its Open (Union) can report
// less than a child that works in Open (Distinct), so a serial operator
// counts for at least the sum of its children. Under Exchange and ParallelAgg
// the children overlap and the operator's own reading stands.
func opNanos(op exec.Operator) int64 {
	own := op.Stats().Nanos
	if k := opKind(op.Name()); k == "exchange" || strings.HasPrefix(op.Name(), "ParallelAgg") {
		return own
	}
	var sum int64
	for _, child := range op.Children() {
		sum += opNanos(child)
	}
	if sum > own {
		return sum
	}
	return own
}

// addOpSpans records one span per operator from its OpStats. OpStats has no
// start time, so siblings are laid out one after the other inside their
// parent: a parent's self time is then its time minus its children's, floored
// at zero where children ran in parallel.
func addOpSpans(tr *tracer, parent int, start int64, op exec.Operator, c *opCounts) {
	kind := opKind(op.Name())
	id := tr.add("op."+kind, op.Name(), parent, start, opNanos(op))
	if kind == "scan" {
		c.scanRows += op.Stats().Rows
		if ex, ok := op.(exec.ExtraStatser); ok {
			for _, kv := range ex.ExtraStats() {
				if kv.Key == "cold_decoded_rows" {
					c.coldRows += kv.Value
				}
			}
		}
	}
	for _, child := range op.Children() {
		addOpSpans(tr, id, start, child, c)
		start += opNanos(child)
	}
}

// maintainAppendMs times maintain.Set.Append for each batch against the
// engine's table (which it grows: call it on a side engine).
func maintainAppendMs(e *patchindex.Engine, table string, partition int, batches []part) ([]float64, error) {
	t, err := e.Catalog().Table(table)
	if err != nil {
		return nil, err
	}
	var indexes []*patch.Index
	for _, ix := range e.Catalog().Indexes() {
		if ix.Table() == table {
			indexes = append(indexes, ix)
		}
	}
	set, err := maintain.NewSet(t, indexes)
	if err != nil {
		return nil, err
	}
	var ms []float64
	for _, b := range batches {
		cols := toVectors(b)
		start := time.Now()
		if err := set.Append(partition, cols); err != nil {
			return nil, err
		}
		ms = append(ms, msSince(start))
	}
	return ms, nil
}

// walAppend logs each batch the way the engine does (one synced record of
// the vector codec's column image) to a fresh log at path, returning the
// per-batch times and the log's bytes per byte of user data.
func walAppend(tr *tracer, path, table string, batches []part) (ms []float64, bytesPerUserByte float64, err error) {
	l, err := wal.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer l.Close()
	var user int64
	for _, b := range batches {
		rec := wal.AppendRecord{Table: table, Cols: vector.AppendColumnsBinary(nil, toVectors(b))}
		root := tr.beginStmt("wal.Log.AppendData")
		start := time.Now()
		err := l.AppendData(rec)
		ms = append(ms, msSince(start))
		tr.endStmt(root)
		if err != nil {
			return nil, 0, err
		}
		user += int64(len(b) * len(b[0]) * 8)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	return ms, float64(fi.Size()) / float64(user), nil
}

// compressRates encodes and decodes each column (sorted hint for the nearly
// sorted one, as the checkpoint does), returning raw MB/s both ways, and
// range-decodes a fiftieth of each.
func compressRates(tr *tracer, cols part, sortedCol int) (encodeMBs, decodeMBs float64, err error) {
	var encNs, decNs, raw int64
	for i, c := range cols {
		v := vector.NewFromInt64(c)
		root := tr.beginStmt("compress.EncodeColumn")
		start := time.Now()
		enc, err := compress.EncodeColumn(v, i == sortedCol)
		encNs += int64(time.Since(start))
		tr.endStmt(root)
		if err != nil {
			return 0, 0, err
		}
		start = time.Now()
		if _, err := enc.Decode(); err != nil {
			return 0, 0, err
		}
		decNs += int64(time.Since(start))
		raw += int64(8 * len(c))

		out := vector.New(vector.Int64, len(c)/50)
		root = tr.beginStmt("compress.DecodeRangeInto")
		err = enc.DecodeRangeInto(out, len(c)/2, len(c)/2+len(c)/50)
		tr.endStmt(root)
		if err != nil {
			return 0, 0, err
		}
	}
	mbs := func(ns int64) float64 { return float64(raw) / 1e6 / (float64(ns) / 1e9) }
	return mbs(encNs), mbs(decNs), nil
}

// wire is an in-process server on loopback plus its client connections.
type wire struct {
	srv     *server.Server
	clients []*server.Client
}

// startWire serves e with patchserver's default flags (the caller sets the
// engine's: plan cache on, result cache off) and dials n connections.
func startWire(e *patchindex.Engine, n int) (*wire, error) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Engine: e, QueueDepth: 64})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	w := &wire{srv: srv}
	for i := 0; i < n; i++ {
		c, err := server.Dial(srv.Addr())
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, c)
	}
	return w, nil
}

// query returns the result rows as rendered by the server.
func (w *wire) query(client int, q string) ([][]string, error) {
	res, err := w.clients[client].Query(q)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (w *wire) close() {
	for _, c := range w.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // waits for the accept loop and handlers
}

// intCell reads an integer result cell.
func intCell(res *patchindex.Result, row, col int) int64 { return res.Rows[row][col].I64 }

func msSince(start time.Time) float64 { return float64(time.Since(start)) / 1e6 }

// cacheCounts are the segment cache's cumulative counters.
type cacheCounts struct{ hits, misses, evictions int64 }

func cacheStats(e *patchindex.Engine) cacheCounts {
	st := e.Cache().Stats()
	return cacheCounts{hits: st.Hits, misses: st.Misses, evictions: st.Evictions}
}

// segmentBytesPerUserByte is the table's compressed size on disk over its
// decoded size: the space side of the storage layer.
func segmentBytesPerUserByte(e *patchindex.Engine, table string) float64 {
	t, err := e.Catalog().Table(table)
	if err != nil || t.RawBytes() == 0 {
		return 0
	}
	return float64(t.CompressedBytes()) / float64(t.RawBytes())
}
