package patchindex

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"patchindex/internal/plan"
	"patchindex/internal/sql"
	"patchindex/internal/vector"
)

// The differential matrix (DESIGN.md §5). The three rewrites are exact, so
// a query must return on every engine path what the all-off reference
// returns. diffAxes are the axes and their values; value 0 is the
// reference's. The first five are engine-level, the last three per
// statement. An engine with caches runs every statement cold, then hot.
var diffAxes = []struct {
	name   string
	values []string
}{
	{"pruning", []string{"off", "on"}},                 // Config.DisableScanRanges
	{"caches", []string{"off", "plan+result"}},         // Config.PlanCache, ResultCache
	{"storage", []string{"memory", "durable"}},         // CHECKPOINT, reopen under an 8 KiB cache
	{"kind", []string{"IDENTIFIER", "BITMAP", "AUTO"}}, // KIND of every CREATE PATCHINDEX
	{"observer", []string{"none", "profiler+tuner"}},   // tuner cycles are steps
	{"rewrites", []string{"off", "on"}},
	{"kernels", []string{"off", "on"}},
	{"parallelism", []string{"1", "2", "3", "4", "8"}},
}

// diffPoint holds one value index per axis.
type diffPoint [8]int

func (p diffPoint) String() string {
	parts := make([]string, len(p))
	for a, v := range p {
		parts[a] = diffAxes[a].name + "=" + diffAxes[a].values[v]
	}
	return strings.Join(parts, "/")
}

// diffEngines are the engines (engine axes), the reference first.
// diffSlices[s][e] are the statement options engine e runs in slice s.
// Query k of a call runs slice k mod 4. Each slice holds every axis value,
// and the four together cross every pair of values
// (TestDiffMatrixCoversEveryPair).
var (
	diffEngines = []diffPoint{
		{0, 0, 0, 0, 0}, {1, 1, 1, 0, 1}, {0, 1, 1, 1, 0},
		{1, 0, 0, 1, 1}, {0, 1, 0, 2, 1}, {1, 0, 1, 2, 0},
	}
	diffSlices = [4][6][3]int{
		{{1, 1, 4}, {1, 0, 0}, {0, 1, 2}, {1, 1, 1}, {1, 1, 3}, {0, 1, 4}},
		{{1, 1, 0}, {1, 1, 2}, {1, 0, 4}, {0, 0, 1}, {1, 1, 3}, {1, 1, 1}},
		{{0, 1, 3}, {1, 1, 4}, {1, 1, 3}, {1, 1, 1}, {1, 1, 0}, {1, 0, 2}},
		{{1, 1, 2}, {1, 1, 1}, {1, 1, 1}, {0, 1, 0}, {1, 1, 4}, {1, 0, 3}},
	}
)

// diffRunAt is the point engine e runs in slice s.
func diffRunAt(s, e int) diffPoint {
	at := diffEngines[e]
	copy(at[5:], diffSlices[s][e][:])
	return at
}

func TestDiffMatrixCoversEveryPair(t *testing.T) {
	inSlice := map[[3]int]bool{} // {slice, axis, value}
	crossed := map[[4]int]bool{} // {axis a, value, axis b > a, value}
	for s := range diffSlices {
		for e := range diffEngines {
			p := diffRunAt(s, e)
			for a := range p {
				inSlice[[3]int{s, a, p[a]}] = true
				for b := a + 1; b < len(p); b++ {
					crossed[[4]int{a, p[a], b, p[b]}] = true
				}
			}
		}
	}
	for a, ax := range diffAxes {
		for va, x := range ax.values {
			for s := range diffSlices {
				if !inSlice[[3]int{s, a, va}] {
					t.Errorf("slice %d lacks %s=%s", s, ax.name, x)
				}
			}
			for b := a + 1; b < len(diffAxes); b++ {
				for vb, y := range diffAxes[b].values {
					if !crossed[[4]int{a, va, b, vb}] {
						t.Errorf("no run crosses %s=%s with %s=%s", ax.name, x, diffAxes[b].name, y)
					}
				}
			}
		}
	}
}

// diffEngine is an engine of the matrix and its point.
type diffEngine struct {
	*Engine
	at diffPoint
}

func (de *diffEngine) caches() bool  { return de.at[1] != 0 }
func (de *diffEngine) durable() bool { return de.at[2] != 0 }
func (de *diffEngine) tuned() bool   { return de.at[4] != 0 }

// indexes runs CREATE PATCHINDEX statements with the engine's KIND.
func (de *diffEngine) indexes(t *testing.T, ddl ...string) {
	t.Helper()
	for _, q := range ddl {
		mustExec(t, de.Engine, q+" KIND "+diffAxes[3].values[de.at[3]])
	}
}

// diffStep mutates one engine before a round's queries. It is applied to
// every engine, the reference included, and must do the same to each.
type diffStep func(t *testing.T, de *diffEngine)

// diffSuite is one call into the matrix: a data source, the indexes built
// on it, and rounds of queries, each after an optional step.
type diffSuite struct {
	cfg     Config
	load    func(t *testing.T, e *Engine)
	indexes []string // CREATE PATCHINDEX statements, without KIND
	rounds  int
	round   func(r int) (diffStep, []string)
}

// fixed is a one-round suite's round.
func fixed(queries ...string) func(int) (diffStep, []string) {
	return func(int) (diffStep, []string) { return nil, queries }
}

// diffMatrix builds the engines, runs the suite, and fails on the first
// result that differs from the reference's (diffWant.check: in order when
// both plans are stable, else as a multiset), or whose DrainWith count is
// not its row count (checked on one engine per query, in turn).
// It returns the engines, the reference first.
func diffMatrix(t *testing.T, s diffSuite) []*diffEngine {
	t.Helper()
	seed := "" // the checkpointed directory every durable engine copies
	engines := make([]*diffEngine, len(diffEngines))
	for i, at := range diffEngines {
		de := &diffEngine{at: at}
		cfg := s.cfg
		cfg.DisableScanRanges = at[0] == 0
		if de.durable() {
			if seed == "" {
				seed = t.TempDir()
				e := newDurableEngine(t, seed, 0)
				s.load(t, e)
				mustExec(t, e, "CHECKPOINT")
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
			cfg.DataDir, cfg.CacheBytes = t.TempDir(), 8192
			copyDir(t, seed, cfg.DataDir)
		}
		cfg.PlanCache, cfg.ResultCache = de.caches(), de.caches()
		if de.tuned() {
			cfg.WorkloadProfile, cfg.Tuning = true, testTuning
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		if de.Engine = e; !de.durable() {
			s.load(t, e)
		}
		de.indexes(t, s.indexes...)
		engines[i] = de
	}
	k := 0 // queries run so far
	for r := 0; r < s.rounds; r++ {
		step, queries := s.round(r)
		if step != nil {
			for _, de := range engines {
				step(t, de)
			}
		}
		for _, q := range queries {
			want := newDiffWant(t, engines[0].Engine, q, diffOpts(diffPoint{}))
			for i := range engines {
				at := diffRunAt(k%len(diffSlices), i)
				props := plan.PropsOf(planOf(t, engines[i].Engine, q, diffOpts(at)))
				passes := []string{"cold"}
				if engines[i].caches() {
					passes = append(passes, "hot")
				}
				for _, pass := range passes {
					drain := pass == "cold" && i == k%len(engines)
					if diff := want.check(diffRun(t, engines[i], q, at, drain), props); diff != "" {
						t.Fatalf("round %d, %s pass, %s\n  query: %s\n%s", r, pass, at, q, diff)
					}
				}
			}
			k++
		}
	}
	if k < len(diffSlices) {
		t.Fatalf("%d queries run %d of the %d slices", k, k, len(diffSlices))
	}
	for _, de := range engines {
		c := de.Metrics().Snapshot().Counters
		if de.caches() && (c["serving.plan_cache.hits"] == 0 || c["serving.result_cache.hits"] == 0) {
			t.Errorf("%s: hot passes missed a cache: %d plan, %d result hits",
				de.at, c["serving.plan_cache.hits"], c["serving.result_cache.hits"])
		}
		if de.durable() && de.Cache().Stats().Misses == 0 {
			t.Errorf("%s: durable engine never read its segments", de.at)
		}
	}
	return engines
}

// copyDir copies a directory tree of regular files.
func copyDir(t *testing.T, from, to string) {
	err := filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dst := filepath.Join(to, strings.TrimPrefix(path, from))
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// diffOpts are the statement options of at.
func diffOpts(at diffPoint) ExecOptions {
	par, _ := strconv.Atoi(diffAxes[7].values[at[7]])
	return ExecOptions{DisablePatchRewrites: at[5] == 0, DisableKernels: at[6] == 0, Parallelism: par}
}

// diffRun executes q with the statement options of at; with drain set,
// DrainWith must count the rows Exec returns.
func diffRun(t *testing.T, de *diffEngine, q string, at diffPoint, drain bool) *Result {
	t.Helper()
	opts := diffOpts(at)
	res, err := de.ExecWith(q, opts)
	if err != nil {
		t.Fatalf("%s [%s]: %v", q, at, err)
	}
	if drain {
		if n, err := de.DrainWith(q, opts); err != nil || n != len(res.Rows) {
			t.Fatalf("%s [%s]: DrainWith counts %d rows (%v), Exec returns %d", q, at, n, err, len(res.Rows))
		}
	}
	return res
}

// planOf is q's optimized logical plan on e under opts: the plan that
// executing q would build, planned past the plan cache.
func planOf(t *testing.T, e *Engine, q string, opts ExecOptions) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	s, ok := stmt.(*sql.SelectStmt)
	if !ok {
		t.Fatalf("%s: not a SELECT", q)
	}
	release := e.latchStmt(stmt)
	defer release()
	node, err := e.planSelect(context.Background(), s, opts)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return node
}

// diffWant is a query's reference result, rendered in order and as a
// multiset, and whether the reference's plan is stable.
type diffWant struct {
	seq, set string
	stable   bool
}

// newDiffWant runs q on e under opts as the reference.
func newDiffWant(t *testing.T, e *Engine, q string, opts ExecOptions) diffWant {
	t.Helper()
	res, err := e.ExecWith(q, opts)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	stable := plan.PropsOf(planOf(t, e, q, opts)).Stable
	return diffWant{seq: diffRender(res, true), set: diffRender(res, false), stable: stable}
}

// check returns "" when got, the result of a plan with props p, agrees
// with the reference: its rows are sorted on p.Order, and they equal the
// reference's in order when both plans are stable, else as a multiset.
func (w diffWant) check(got *Result, p plan.Props) string {
	for i := 1; i < len(got.Rows); i++ {
		for _, k := range p.Order {
			c := got.Rows[i-1][k.Col].Compare(got.Rows[i][k.Col])
			if k.Desc {
				c = -c
			}
			if c > 0 {
				return fmt.Sprintf("  rows %d and %d are not sorted on %v, which the plan claims", i-1, i, p.Order)
			}
			if c < 0 {
				break
			}
		}
	}
	if w.stable && p.Stable {
		return diffCheck(w.seq, diffRender(got, true))
	}
	return diffCheck(w.set, diffRender(got, false))
}

// diffCheck returns "" when two renderings agree, else the line counts
// and the first line that differs.
func diffCheck(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	w, g = append(w, "(none)"), append(g, "(none)")
	return fmt.Sprintf("  %d lines, reference %d; first difference at line %d\n  want: %s\n  got:  %s",
		len(g)-1, len(w)-1, i, w[i], g[i])
}

// diffRender is the canonical rendering of a result: the column names,
// then one line per row. Every value carries its type; floats print in
// their shortest exact form, strings quoted, NULL apart from any value.
// Unless inOrder, the lines are sorted, so that rows compare as a multiset.
func diffRender(res *Result, inOrder bool) string {
	buf := []byte(strings.Join(res.Columns, " | "))
	ends := make([]int, 0, len(res.Rows)+1) // where each line ends in buf
	for _, row := range res.Rows {
		ends = append(ends, len(buf))
		buf = append(buf, '\n')
		for c, v := range row {
			if c > 0 {
				buf = append(buf, " | "...)
			}
			if v.Null {
				buf = append(buf, "NULL"...)
				continue
			}
			buf = append(append(buf, v.Typ.String()...), ' ')
			switch v.Typ {
			case vector.Float64:
				buf = strconv.AppendFloat(buf, v.F64, 'g', -1, 64)
			case vector.String:
				buf = strconv.AppendQuote(buf, v.Str)
			case vector.Bool:
				buf = strconv.AppendBool(buf, v.B)
			default:
				buf = strconv.AppendInt(buf, v.I64, 10)
			}
		}
	}
	if inOrder {
		return string(buf)
	}
	ends = append(ends, len(buf))
	lines := make([][]byte, len(res.Rows))
	for i := range lines {
		lines[i] = buf[ends[i]:ends[i+1]]
	}
	slices.SortFunc(lines, bytes.Compare)
	return string(buf[:ends[0]]) + string(bytes.Join(lines, nil))
}

// sameWithRewrites runs each query with and without PatchIndex rewrites on
// one engine and requires the same result.
func sameWithRewrites(t *testing.T, e *Engine, queries ...string) {
	t.Helper()
	for _, q := range queries {
		want := newDiffWant(t, e, q, ExecOptions{DisablePatchRewrites: true})
		if diff := want.check(mustExec(t, e, q), plan.PropsOf(planOf(t, e, q, ExecOptions{}))); diff != "" {
			t.Errorf("%s: rewritten plan differs\n%s", q, diff)
		}
	}
}

// Data sources, queries and steps.

// exceptionData is loadExceptionTable's table as a data source.
func exceptionData(n, parts int, rate float64, seed int64) func(*testing.T, *Engine) {
	return func(t *testing.T, e *Engine) { loadExceptionTable(t, e, "data", n, parts, rate, seed) }
}

var (
	forcedIndexes = []string{
		"CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 1.0 FORCE",
		"CREATE PATCHINDEX ON data(s) SORTED THRESHOLD 1.0 FORCE",
	}
	thresholdIndexes = []string{
		"CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5",
		"CREATE PATCHINDEX ON data(s) SORTED THRESHOLD 0.5",
	}
)

// rangeQueries are the query shapes over loadExceptionTable's table with
// random bounds lo <= hi, then extra.
func rangeQueries(lo, hi int64, extra ...string) []string {
	return append([]string{
		"SELECT COUNT(DISTINCT u) FROM data",
		"SELECT COUNT(*) FROM data",
		fmt.Sprintf("SELECT COUNT(DISTINCT u) FROM data WHERE s >= %d AND s < %d", lo, hi),
		fmt.Sprintf("SELECT MIN(s), MAX(s), COUNT(s) FROM data WHERE u > %d", lo),
		fmt.Sprintf("SELECT s FROM data WHERE s >= %d AND s < %d ORDER BY s LIMIT 100", lo, hi),
		"SELECT s FROM data ORDER BY s LIMIT 500",
	}, extra...)
}

// loadDiffData fills tables t (id, grp, val) and d (id, tag) with a
// deterministic mix: negatives, duplicates, a NULL stripe, and enough rows
// to span several vector batches per partition. Table big (id, val) is one
// partition of 24 000 sorted ids in six SMA blocks: a range within the
// last block is selective enough that a scan of a durable engine decodes
// it from the segment instead of loading the column.
func loadDiffData(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE t (id BIGINT, grp VARCHAR, val BIGINT)")
	mustExec(t, e, "CREATE TABLE d (id BIGINT, tag VARCHAR)")
	mustExec(t, e, "CREATE TABLE big (id BIGINT, val BIGINT) PARTITIONS 1")
	load := func(table string, part int, cols ...*vector.Vector) {
		if err := e.LoadColumns(table, part, cols); err != nil {
			t.Fatal(err)
		}
	}
	const n = 6000
	for part := 0; part < 2; part++ {
		id, grp, val := vector.New(vector.Int64, n), vector.New(vector.String, n), vector.New(vector.Int64, n)
		for i := 0; i < n; i++ {
			x := int64(part*n + i)
			id.AppendInt64(x)
			if i%37 == 0 {
				grp.AppendNull()
			} else {
				grp.AppendString(fmt.Sprintf("g%02d", i%23))
			}
			val.AppendInt64((x*2654435761)%10_000 - 5000)
		}
		load("t", part, id, grp, val)
	}
	for part := 0; part < 2; part++ {
		id, tag := vector.New(vector.Int64, 500), vector.New(vector.String, 500)
		for i := 0; i < 500; i++ {
			id.AppendInt64(int64(part*500+i) * 7) // sparse keys: most probe rows miss
			tag.AppendString(fmt.Sprintf("t%d", i%5))
		}
		load("d", part, id, tag)
	}
	id, val := make([]int64, 24_000), make([]int64, 24_000)
	for i := range id {
		id[i], val[i] = int64(i), int64(i)*3
		if i%50 == 0 {
			val[i] = -1 // the NUC index's patches
		}
	}
	load("big", 0, vector.NewFromInt64(id), vector.NewFromInt64(val))
}

// appendStep draws m rows for loadExceptionTable's table (u and s below
// limit, payload below payloadLimit), then a partition below parts, and
// appends the rows there on every engine, indexes maintained.
func appendStep(rng *rand.Rand, m, parts int, limit int64, payloadLimit int) diffStep {
	u, s, pay := make([]int64, m), make([]int64, m), make([]float64, m)
	for i := range u {
		u[i], s[i], pay[i] = rng.Int63n(limit), rng.Int63n(limit), float64(rng.Intn(payloadLimit))
	}
	part := rng.Intn(parts)
	return func(t *testing.T, de *diffEngine) {
		cols := []*vector.Vector{vector.NewFromInt64(slices.Clone(u)), vector.NewFromInt64(slices.Clone(s)),
			vector.NewFromFloat64(slices.Clone(pay))}
		if err := de.Append("data", part, cols); err != nil {
			t.Fatal(err)
		}
	}
}

// The suites.

// diffSeeds runs f in a parallel subtest per seed, with the seed's
// generator; -short runs the first short seeds.
func diffSeeds(t *testing.T, seeds []int64, short int, f func(t *testing.T, seed int64, rng *rand.Rand)) {
	t.Parallel()
	if testing.Short() {
		seeds = seeds[:short]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			f(t, seed, rand.New(rand.NewSource(seed)))
		})
	}
}

// TestDifferentialRandomQueries: random tables with forced NUC and NSC
// indexes and random range predicates over every query shape.
func TestDifferentialRandomQueries(t *testing.T) {
	diffSeeds(t, []int64{1, 2, 3, 4, 5}, 2, func(t *testing.T, seed int64, rng *rand.Rand) {
		parts := 1 + rng.Intn(4)
		n := 2000 + rng.Intn(12000)
		rate := rng.Float64() * 0.3
		rng.Intn(3) // the seed's patch kind, before kind became an axis
		lo := rng.Int63n(int64(n))
		hi := lo + rng.Int63n(int64(n)/2)
		diffMatrix(t, diffSuite{
			cfg: Config{DefaultPartitions: parts}, load: exceptionData(n, parts, rate, seed*7),
			indexes: forcedIndexes, rounds: 1,
			round: fixed(rangeQueries(lo, hi,
				fmt.Sprintf("SELECT COUNT(*) FROM data WHERE payload > %d AND s < %d", rng.Intn(1000), hi),
				// Fractional bound on a BIGINT column: exact mixed-type
				// comparison in SMA and zone-map pruning.
				fmt.Sprintf("SELECT COUNT(*), MAX(u) FROM data WHERE s > %d.5", lo),
				// Single-partition key range: zone maps prune the rest.
				fmt.Sprintf("SELECT COUNT(*) FROM data WHERE s >= %d AND s <= %d", lo, lo+100))...),
		})
	})
}

// TestDifferentialAppendsAndQueries interleaves maintained appends with
// queries.
func TestDifferentialAppendsAndQueries(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(77))
	diffMatrix(t, diffSuite{
		cfg: Config{DefaultPartitions: 2}, load: exceptionData(4000, 2, 0.05, 321),
		indexes: forcedIndexes, rounds: 5,
		round: func(int) (diffStep, []string) {
			return appendStep(rng, 100+rng.Intn(300), 2, 20_000, 100), []string{
				"SELECT COUNT(DISTINCT u) FROM data",
				"SELECT s FROM data ORDER BY s LIMIT 50",
				"SELECT COUNT(*), MIN(u) FROM data WHERE u >= 10000",
			}
		},
	})
}

// TestDifferentialCachedVsFresh interleaves index creates and drops and
// maintained appends with queries, so that the epoch and version-stamp
// invalidation of the serving caches is exercised: a stale cache entry
// shows as a hot pass that differs.
func TestDifferentialCachedVsFresh(t *testing.T) {
	diffSeeds(t, []int64{11, 12, 13}, 1, func(t *testing.T, seed int64, rng *rand.Rand) {
		parts := 1 + rng.Intn(3)
		n := 2000 + rng.Intn(6000)
		rate := rng.Float64() * 0.2
		var have [2]bool // forcedIndexes[i] exists
		flip := func(i int) diffStep {
			have[i] = !have[i]
			create := have[i]
			return func(t *testing.T, de *diffEngine) {
				if create {
					de.indexes(t, forcedIndexes[i])
				} else if err := de.DropPatchIndex("data", []string{"u", "s"}[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		diffMatrix(t, diffSuite{
			cfg: Config{DefaultPartitions: parts}, load: exceptionData(n, parts, rate, seed*3), rounds: 8,
			round: func(int) (diffStep, []string) {
				var step diffStep
				switch a := rng.Intn(4); {
				case a < 2 && !have[a]: // create u or s
					step = flip(a)
				case a == 2 && have[0] && rng.Intn(2) == 0: // drop u or else s
					step = flip(0)
				case a == 2 && have[1]:
					step = flip(1)
				case a == 3:
					step = appendStep(rng, 50+rng.Intn(200), parts, int64(2*n), 1000)
				}
				lo := rng.Int63n(int64(n))
				hi := lo + rng.Int63n(int64(n)/2)
				return step, rangeQueries(lo, hi, fmt.Sprintf("SELECT COUNT(*), MAX(u) FROM data WHERE s > %d.5", lo))
			},
		})
	})
}

// TestDurableDifferentialKernels: the kernel mix over strings, a NULL
// stripe and a join, with NSC indexes on both join keys and NUC indexes on
// the string column and on big, and selective ranges of big.
func TestDurableDifferentialKernels(t *testing.T) {
	t.Parallel()
	const coldQuery = "SELECT COUNT(*), SUM(val), MIN(id), MAX(id) FROM big WHERE id >= 20480"
	engines := diffMatrix(t, diffSuite{
		cfg: Config{DefaultPartitions: 2}, load: loadDiffData, rounds: 1,
		indexes: []string{
			"CREATE PATCHINDEX ON t(id) SORTED THRESHOLD 1.0 FORCE",
			"CREATE PATCHINDEX ON d(id) SORTED THRESHOLD 1.0 FORCE",
			"CREATE PATCHINDEX ON t(grp) UNIQUE THRESHOLD 1.0 FORCE",
			"CREATE PATCHINDEX ON big(val) UNIQUE THRESHOLD 1.0 FORCE",
		},
		round: fixed(
			"SELECT COUNT(*), SUM(id), SUM(val) FROM t",
			"SELECT COUNT(*), SUM(val) FROM t WHERE id >= 11000",
			"SELECT COUNT(*) FROM t WHERE val >= 0 AND id < 4000",    // conjunctive filter
			"SELECT COUNT(DISTINCT grp) FROM t",                      // distinct over dict-encoded strings
			"SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp",  // group-by with a NULL group
			"SELECT id, val FROM t WHERE id < 3000 ORDER BY val, id", // sort kernel
			"SELECT COUNT(*), SUM(val) FROM t JOIN d ON t.id = d.id", // join
			"SELECT COUNT(*), SUM(val) FROM d JOIN t ON d.id = t.id", // the join mirrored
			coldQuery, // the last SMA block, whole: cold-range decode
			"SELECT COUNT(DISTINCT val) FROM big WHERE id >= 21000 AND id < 22000",
			"SELECT id, val FROM big WHERE id >= 23990 ORDER BY id",
			"SELECT d.id, tag, val FROM d JOIN t ON d.id = t.id WHERE val > 0", // a join's own rows
		),
	})
	for _, de := range engines {
		if de.durable() && de.at[0] != 0 {
			if out := mustExec(t, de.Engine, "EXPLAIN ANALYZE "+coldQuery).Message; !strings.Contains(out, "cold_decoded_rows=") {
				t.Errorf("%s: no cold-range decode:\n%s", de.at, out)
			}
		}
	}
}

// TestParallelDifferential: ordered queries, grouped aggregates and bare
// projections over data split into 2 to 5 partitions.
func TestParallelDifferential(t *testing.T) {
	diffSeeds(t, []int64{11, 12, 13}, 1, func(t *testing.T, seed int64, rng *rand.Rand) {
		parts := 2 + rng.Intn(4)
		n := 4000 + rng.Intn(8000)
		lo := rng.Int63n(int64(n))
		hi := lo + rng.Int63n(int64(n)/2)
		diffMatrix(t, diffSuite{
			cfg: Config{DefaultPartitions: parts}, load: exceptionData(n, parts, 0.1, seed*3),
			indexes: forcedIndexes, rounds: 1,
			round: fixed(rangeQueries(lo, hi,
				fmt.Sprintf("SELECT payload, COUNT(*), SUM(u) FROM data WHERE s < %d GROUP BY payload", hi),
				"SELECT payload, MIN(s), MAX(s) FROM data GROUP BY payload",
				fmt.Sprintf("SELECT u FROM data WHERE s >= %d AND s < %d", lo, hi),
				fmt.Sprintf("SELECT u, s FROM data WHERE payload > %d", rng.Intn(500)))...),
		})
	})
}

// TestParallelExecutionMatchesSequential: threshold-built indexes on four
// partitions, and an engine configured for twice GOMAXPROCS, a degree above
// the matrix's on wide machines.
func TestParallelExecutionMatchesSequential(t *testing.T) {
	t.Parallel()
	queries := []string{
		"SELECT COUNT(DISTINCT u) FROM data",
		"SELECT COUNT(*) FROM data WHERE payload > 1",
		"SELECT MIN(s), MAX(s) FROM data",
		"SELECT s FROM data ORDER BY s LIMIT 100",
	}
	s := diffSuite{cfg: Config{DefaultPartitions: 4}, load: exceptionData(20000, 4, 0.05, 77),
		indexes: thresholdIndexes, rounds: 1, round: fixed(queries...)}
	ref := diffMatrix(t, s)[0]
	e, err := New(Config{DefaultPartitions: 4, Parallelism: 2 * runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s.load(t, e)
	for _, ddl := range s.indexes {
		mustExec(t, e, ddl)
	}
	for _, q := range queries {
		want := newDiffWant(t, ref.Engine, q, diffOpts(diffPoint{}))
		if diff := want.check(mustExec(t, e, q), plan.PropsOf(planOf(t, e, q, ExecOptions{}))); diff != "" {
			t.Errorf("%s: Parallelism %d differs\n%s", q, 2*runtime.GOMAXPROCS(0), diff)
		}
	}
}

// TestWorkloadDifferentialIdentical: the workload observatory's queries
// over threshold-built indexes.
func TestWorkloadDifferentialIdentical(t *testing.T) {
	t.Parallel()
	diffMatrix(t, diffSuite{
		load: exceptionData(20000, 4, 0.05, 42), indexes: thresholdIndexes, rounds: 1,
		round: fixed(
			"SELECT COUNT(DISTINCT u) FROM data",
			"SELECT u FROM data WHERE u < 100 ORDER BY u",
			"SELECT s FROM data WHERE payload > 0.5 ORDER BY s",
			"SELECT COUNT(*), SUM(s) FROM data WHERE u >= 500",
			"SELECT u, COUNT(*) FROM data WHERE u >= 999999000 GROUP BY u ORDER BY u",
		),
	})
}

// TestTunerDifferentialIdentical: a workload that shifts from distinct to
// sort queries, with a tuner cycle after every four statements, so that
// the tuner engines create and drop indexes while the others have none.
func TestTunerDifferentialIdentical(t *testing.T) {
	t.Parallel()
	var workload []string
	for i := 0; i < 8; i++ { // distinct-heavy phase
		workload = append(workload, "SELECT COUNT(DISTINCT u) FROM data", "SELECT u FROM data WHERE u < 100 ORDER BY u")
	}
	for i := 0; i < 12; i++ { // sort-heavy phase
		workload = append(workload, "SELECT s FROM data ORDER BY s", "SELECT COUNT(*), SUM(s) FROM data WHERE u >= 500")
	}
	engines := diffMatrix(t, diffSuite{
		load: exceptionData(5000, 4, 0.05, 42), rounds: len(workload) / 4,
		round: func(r int) (diffStep, []string) {
			cycle := func(t *testing.T, de *diffEngine) {
				if r > 0 && de.tuned() {
					de.Tuner().RunCycle()
				}
			}
			return cycle, workload[r*4 : r*4+4]
		},
	})
	// The tuner acted, so the matrix compared different physical designs.
	for _, de := range engines {
		if st := de.Tuner().Status(); de.tuned() && st.Creates == 0 {
			t.Errorf("%s: tuner never created an index during the workload: %+v", de.at, st)
		}
	}
}
