package plan

import (
	"fmt"

	"patchindex/internal/exec"
	"patchindex/internal/expr"
	"patchindex/internal/obs"
	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// Config controls physical plan building.
type Config struct {
	// Parallelism is the maximum degree of intra-query parallelism: the
	// worker-pool bound of Exchange and multi-pipeline HashAgg. Values <= 1
	// build strictly serial plans, identical to plans built before parallel
	// execution existed. The engine resolves session/config defaults to a
	// concrete degree before building, so 0 means serial here, not "auto".
	Parallelism int
	// DisableScanRanges turns off SMA-based block pruning and zone-map
	// partition pruning (they share the predicate-bound extraction).
	DisableScanRanges bool
	// DisableKernels forces interpreted expression evaluation in Filter and
	// Project operators instead of compiled vectorized kernels.
	DisableKernels bool
	// Workload, when set, receives build-time benefit attribution: rows
	// skipped by zone-map pruning (credited to the table's zone maps) and
	// the executed plan's estimated root cost. Nil no-ops.
	Workload *obs.StmtObs
	// Spill bounds the in-memory working set of pipeline breakers (Sort,
	// HashJoin build side); past the limit they spill to Spill.Dir. The
	// zero value disables spilling.
	Spill exec.SpillConfig

	// pruned collects the (table, partition) pairs skipped by zone-map
	// pruning during this build. Keyed rather than counted because the
	// builder may visit the same subtree more than once (a splitPipelines
	// probe that is then discarded must not double-count).
	pruned map[prunedKey]struct{}
}

type prunedKey struct {
	t    *storage.Table
	part int
}

// parallel reports whether parallel operators may be introduced.
func (c Config) parallel() bool { return c.Parallelism > 1 }

// zonePruned reports whether partition part can be skipped entirely: some
// bounded column's zone map proves no row satisfies the enclosing filter.
// Skipped partitions are recorded for the plan root's partitions_pruned
// counter.
func (c Config) zonePruned(t *storage.Table, part int, cols []int, bounds map[int]colBounds) bool {
	for outCol, b := range bounds {
		if outCol >= len(cols) || (b.lo.Null && b.hi.Null) {
			continue
		}
		if t.ZonePrunes(part, cols[outCol], b.lo, b.hi) {
			if c.pruned != nil {
				c.pruned[prunedKey{t, part}] = struct{}{}
			}
			return true
		}
	}
	return false
}

// Build translates a logical plan into a physical operator tree. The number
// of partitions skipped by zone-map pruning is stamped onto the root
// operator's stats so EXPLAIN ANALYZE and traces surface it.
func Build(n Node, cfg Config) (exec.Operator, error) {
	cfg.pruned = map[prunedKey]struct{}{}
	op, err := buildNode(n, cfg, nil)
	if err != nil {
		return nil, err
	}
	op.Stats().PartitionsPruned = int64(len(cfg.pruned))
	if cfg.Workload != nil {
		// Credit each pruned partition's rows to the table's zone maps: the
		// cost saved is the scan cost those rows would have incurred.
		for k := range cfg.pruned {
			rows := int64(k.t.Partition(k.part).NumRows())
			cfg.Workload.AddIndexUse(obs.IndexUse{
				Table: k.t.Name(), Constraint: "zonemap",
				RowsSkipped: rows,
				CostSaved:   float64(rows) * costScanTuple,
			})
		}
		cfg.Workload.SetRootCost(op.Stats().EstCost)
	}
	return op, nil
}

// buildNode builds n; bounds, when non-nil, carries per-table-column value
// bounds extracted from an enclosing filter for scan-range pruning. The cost
// model's estimates are stamped onto the resulting operator so EXPLAIN
// ANALYZE can print them next to the actuals.
func buildNode(n Node, cfg Config, bounds map[int]colBounds) (exec.Operator, error) {
	op, err := buildNodeOp(n, cfg, bounds)
	if err != nil {
		return nil, err
	}
	st := op.Stats()
	st.EstRows = int64(EstimateRows(n))
	st.EstCost = Cost(n)
	return op, nil
}

func buildNodeOp(n Node, cfg Config, bounds map[int]colBounds) (exec.Operator, error) {
	switch n.(type) {
	case *FilterNode, *ProjectNode, *UnionNode:
		// A parallel plan pushes these into per-partition pipelines under an
		// Exchange; a union's branches (e.g. a rewrite's exclude and patch
		// sides) become concurrent pipelines, each further split per
		// partition.
		parts, err := parallelPipelines(n, cfg)
		if err != nil {
			return nil, err
		}
		if parts != nil {
			return exec.NewExchange(cfg.Parallelism, parts...)
		}
	}
	switch x := n.(type) {
	case *ScanNode, *PatchScanNode:
		parts, keys, err := partitionLeaves(n, cfg, bounds)
		if err != nil {
			return nil, err
		}
		return gather(parts, keys, cfg)
	case *FilterNode, *ProjectNode:
		child, err := buildNode(inputOf(n), cfg, childBounds(n, cfg))
		if err != nil {
			return nil, err
		}
		return wrap(n, child, cfg)
	case *AggregateNode:
		// Partial aggregation per pipeline, merged in child order so the
		// group sequence matches the serial plan exactly. One input runs
		// inline: the serial plan is the one-pipeline case.
		inputs, err := parallelPipelines(x.Input, cfg)
		if err != nil {
			return nil, err
		}
		if inputs == nil {
			child, err := buildNode(x.Input, cfg, nil)
			if err != nil {
				return nil, err
			}
			inputs = []exec.Operator{child}
		}
		return exec.NewParallelAgg(cfg.Parallelism, x.GroupCols, x.Aggs, inputs...)
	case *SortNode:
		child, err := buildNode(x.Input, cfg, nil)
		if err != nil {
			return nil, err
		}
		srt, err := exec.NewSort(child, x.Keys)
		if err != nil {
			return nil, err
		}
		srt.SetSpill(cfg.Spill)
		return srt, nil
	case *LimitNode:
		child, err := buildNode(x.Input, cfg, nil)
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(child, x.N)
	case *JoinNode:
		left, err := buildNode(x.Left, cfg, nil)
		if err != nil {
			return nil, err
		}
		right, err := buildNode(x.Right, cfg, nil)
		if err != nil {
			return nil, err
		}
		if x.Method == JoinMerge {
			return exec.NewMergeJoin(left, right, x.LeftKey, x.RightKey)
		}
		var hj *exec.HashJoin
		if x.Outer {
			hj, err = exec.NewLeftOuterHashJoin(left, right, x.LeftKey, x.RightKey)
		} else {
			hj, err = exec.NewHashJoin(left, right, x.LeftKey, x.RightKey, x.BuildLeft)
		}
		if err != nil {
			return nil, err
		}
		hj.SetSpill(cfg.Spill)
		return hj, nil
	case *UnionNode:
		children := make([]exec.Operator, len(x.Inputs))
		for i, in := range x.Inputs {
			c, err := buildNode(in, cfg, nil)
			if err != nil {
				return nil, err
			}
			children[i] = c
		}
		if x.Merge {
			return exec.NewMergeUnion(x.Keys, children...)
		}
		return exec.NewUnion(children...)
	default:
		return nil, fmt.Errorf("plan: cannot build %T", n)
	}
}

// partitionLeaves builds the per-partition leaves of a scan or patched scan:
// one Scan per partition, under a PatchSelect for a patched scan (it must
// sit directly on the scan of its partition, as required for the
// row-position/tuple-identifier equivalence). A Part >= 0 scan is the
// one-element partition list. Partitions whose zone maps prove no row
// satisfies bounds are skipped; that is safe in both patch modes, because
// the bounds come from the filter enclosing the scan, so every row of a
// pruned partition, patch or not, would fail that filter anyway. If every
// partition is pruned, one empty-range leaf keeps the plan shape (and the
// operator contract above it). keys is the merge order that combining the
// leaves must keep: the table's declared sort key, or the index column of an
// ordered patched scan; nil when the scan promises no order.
func partitionLeaves(n Node, cfg Config, bounds map[int]colBounds) (parts []exec.Operator, keys []exec.SortKey, err error) {
	var (
		t    *storage.Table
		cols []int
		part int
		ix   *patch.Index
		mode exec.SelectMode
	)
	switch x := n.(type) {
	case *ScanNode:
		t, cols, part = x.Table, x.Cols, x.Part
		if key := t.SortKey(); key != "" {
			if pos := outputPos(cols, t, key); pos >= 0 {
				keys = []exec.SortKey{{Col: pos}}
			}
		}
	case *PatchScanNode:
		t, cols, part, ix, mode = x.Table, x.Cols, x.Part, x.Index, x.Mode
		if !ix.Ready() {
			return nil, nil, fmt.Errorf("plan: PatchIndex on %s.%s is not built", ix.Table(), ix.Column())
		}
		if ix.NumPartitions() != t.NumPartitions() {
			return nil, nil, fmt.Errorf("plan: PatchIndex on %s.%s has %d partitions, table has %d",
				ix.Table(), ix.Column(), ix.NumPartitions(), t.NumPartitions())
		}
		if x.Ordered {
			pos := outputPos(cols, t, ix.Column())
			if pos < 0 {
				return nil, nil, fmt.Errorf("plan: ordered patched scan requires column %s in the scan list", ix.Column())
			}
			keys = []exec.SortKey{{Col: pos, Desc: ix.Descending()}}
		}
	}
	leaf := func(p int, ranges []storage.ScanRange) error {
		sc, err := exec.NewScan(t, p, cols, ranges)
		if err != nil {
			return err
		}
		if ix == nil {
			parts = append(parts, sc)
			return nil
		}
		ps, err := exec.NewPatchSelect(sc, ix.Partition(p), mode)
		if err != nil {
			return err
		}
		// Stamped with the enabling index's identity so executed-plan
		// benefit attribution can credit the index.
		ps.TagIndex(ix.Table(), ix.Column(), constraintTag(ix.Constraint()))
		parts = append(parts, ps)
		return nil
	}
	first, last := 0, t.NumPartitions()-1
	if part >= 0 {
		first, last = part, part
	}
	for p := first; p <= last; p++ {
		if cfg.zonePruned(t, p, cols, bounds) {
			continue
		}
		if err := leaf(p, rangesFor(t, p, cols, bounds)); err != nil {
			return nil, nil, err
		}
	}
	if len(parts) == 0 {
		if err := leaf(first, []storage.ScanRange{}); err != nil {
			return nil, nil, err
		}
	}
	return parts, keys, nil
}

// gather combines pipelines into one operator: the pipeline itself when
// there is only one, a MergeUnion on keys when they are ordered, an Exchange
// when the plan is parallel, and a Union otherwise.
func gather(parts []exec.Operator, keys []exec.SortKey, cfg Config) (exec.Operator, error) {
	switch {
	case len(parts) == 1:
		return parts[0], nil
	case keys != nil:
		return exec.NewMergeUnion(keys, parts...)
	case cfg.parallel():
		return exec.NewExchange(cfg.Parallelism, parts...)
	default:
		return exec.NewUnion(parts...)
	}
}

// parallelPipelines returns n's independent per-partition pipelines when the
// plan is parallel and n splits into more than one; nil means "build
// serially".
func parallelPipelines(n Node, cfg Config) ([]exec.Operator, error) {
	if !cfg.parallel() {
		return nil, nil
	}
	parts, err := splitPipelines(n, cfg, nil)
	if err != nil || len(parts) < 2 {
		return nil, err
	}
	return parts, nil
}

// splitPipelines decomposes n into independent per-partition pipelines —
// the morsels of an Exchange or the partial-aggregation inputs of a
// parallel aggregation. It handles the shapes that dominate the benchmark
// workloads: scans and patched scans with no ordering promise to preserve,
// filters and projections over a splittable input (pushed into every
// pipeline), and non-merge unions (each branch contributes its own
// pipelines, in branch order). A nil result with nil error means "not
// splittable — build serially"; splitting never changes the multiset of
// rows produced, only their interleaving.
func splitPipelines(n Node, cfg Config, bounds map[int]colBounds) ([]exec.Operator, error) {
	switch x := n.(type) {
	case *ScanNode, *PatchScanNode:
		parts, keys, err := partitionLeaves(n, cfg, bounds)
		if err != nil || keys != nil {
			// An ordered scan promises merged order via MergeUnion; splitting
			// would break OrderingOf.
			return nil, err
		}
		return parts, nil
	case *FilterNode, *ProjectNode:
		parts, err := splitPipelines(inputOf(n), cfg, childBounds(n, cfg))
		if err != nil || parts == nil {
			return nil, err
		}
		for i, p := range parts {
			if parts[i], err = wrap(n, p, cfg); err != nil {
				return nil, err
			}
		}
		return parts, nil
	case *UnionNode:
		if x.Merge {
			return nil, nil
		}
		var parts []exec.Operator
		for _, in := range x.Inputs {
			sub, err := splitPipelines(in, cfg, nil)
			if err != nil {
				return nil, err
			}
			if sub == nil {
				// Unsplittable branch: the whole branch is one pipeline.
				op, err := buildNode(in, cfg, nil)
				if err != nil {
					return nil, err
				}
				sub = []exec.Operator{op}
			}
			parts = append(parts, sub...)
		}
		return parts, nil
	default:
		return nil, nil
	}
}

// inputOf returns the input of a Filter or Project node.
func inputOf(n Node) Node {
	if f, ok := n.(*FilterNode); ok {
		return f.Input
	}
	return n.(*ProjectNode).Input
}

// childBounds returns the scan-range bounds a Filter node's predicate puts
// on its input; nil for a Project, or when scan ranges are disabled.
func childBounds(n Node, cfg Config) map[int]colBounds {
	if f, ok := n.(*FilterNode); ok && !cfg.DisableScanRanges {
		return extractBounds(f.Pred, f.Input.Schema())
	}
	return nil
}

// wrap builds the Filter or Project operator of node n over child.
func wrap(n Node, child exec.Operator, cfg Config) (exec.Operator, error) {
	if f, ok := n.(*FilterNode); ok {
		op, err := exec.NewFilter(child, f.Pred)
		if err != nil {
			return nil, err
		}
		if cfg.DisableKernels {
			op.DisableKernels()
		}
		return op, nil
	}
	p := n.(*ProjectNode)
	op, err := exec.NewProject(child, p.Exprs)
	if err != nil {
		return nil, err
	}
	if cfg.DisableKernels {
		op.DisableKernels()
	}
	return op, nil
}

// outputPos maps a table column name to its position in the scan column
// list, or -1.
func outputPos(cols []int, t *storage.Table, name string) int {
	idx := t.Schema().ColumnIndex(name)
	for i, c := range cols {
		if c == idx {
			return i
		}
	}
	return -1
}

// colBounds is an inclusive value interval for one scan output column.
type colBounds struct {
	lo, hi vector.Value // Null = unbounded
}

// extractBounds derives per-column bounds from a predicate for SMA pruning.
// Only top-level conjunctions of comparisons between a column reference and
// a literal are used; anything else contributes no bounds (the filter still
// runs, so pruning is merely an optimization).
func extractBounds(pred expr.Expr, schema []Column) map[int]colBounds {
	out := map[int]colBounds{}
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		switch x := e.(type) {
		case *expr.BoolExpr:
			if x.Op == expr.And {
				walk(x.Left)
				walk(x.Right)
			}
		case *expr.Cmp:
			ref, refLeft := x.Left.(*expr.ColRef)
			lit, litRight := x.Right.(*expr.Literal)
			op := x.Op
			if !refLeft || !litRight {
				// Try the mirrored form literal <op> column.
				if ref2, ok := x.Right.(*expr.ColRef); ok {
					if lit2, ok2 := x.Left.(*expr.Literal); ok2 {
						ref, lit = ref2, lit2
						switch op {
						case expr.LT:
							op = expr.GT
						case expr.LE:
							op = expr.GE
						case expr.GT:
							op = expr.LT
						case expr.GE:
							op = expr.LE
						}
					} else {
						return
					}
				} else {
					return
				}
			}
			if lit.Val.Null || ref.Col >= len(schema) {
				return
			}
			b, ok := out[ref.Col]
			if !ok {
				// Unbounded sides are Null sentinels, never zero values.
				b = colBounds{
					lo: vector.NullValue(schema[ref.Col].Typ),
					hi: vector.NullValue(schema[ref.Col].Typ),
				}
			}
			switch op {
			case expr.EQ:
				b.lo = tighterLo(b.lo, lit.Val)
				b.hi = tighterHi(b.hi, lit.Val)
			case expr.LT, expr.LE:
				b.hi = tighterHi(b.hi, lit.Val)
			case expr.GT, expr.GE:
				b.lo = tighterLo(b.lo, lit.Val)
			default:
				return // NE prunes nothing at block granularity
			}
			out[ref.Col] = b
		}
	}
	walk(pred)
	if len(out) == 0 {
		return nil
	}
	return out
}

// tighterLo/tighterHi pick the stricter of two bounds. CompareNumeric keeps
// mixed int/float bounds exact (e.g. WHERE v > 3 AND v > 3.5 on a BIGINT
// column compares the 3.5 correctly, including beyond 2^53).
func tighterLo(cur, v vector.Value) vector.Value {
	if cur.Null || vector.CompareNumeric(v, cur) > 0 {
		return v
	}
	return cur
}

func tighterHi(cur, v vector.Value) vector.Value {
	if cur.Null || vector.CompareNumeric(v, cur) < 0 {
		return v
	}
	return cur
}

// rangesFor computes pruned scan ranges for one partition, intersecting the
// surviving blocks of every bounded column. nil means a full scan.
func rangesFor(t *storage.Table, part int, cols []int, bounds map[int]colBounds) []storage.ScanRange {
	if len(bounds) == 0 {
		return nil
	}
	var ranges []storage.ScanRange
	first := true
	for outCol, b := range bounds {
		if outCol >= len(cols) {
			continue
		}
		tblCol := cols[outCol]
		r := t.PruneRanges(part, tblCol, b.lo, b.hi, false)
		if first {
			ranges, first = r, false
			continue
		}
		ranges = intersectRanges(ranges, r)
	}
	if first {
		return nil
	}
	if ranges == nil {
		// Everything pruned: an empty (non-nil) range list, NOT a full scan.
		return []storage.ScanRange{}
	}
	return ranges
}

// intersectRanges intersects two sorted, non-overlapping range lists.
func intersectRanges(a, b []storage.ScanRange) []storage.ScanRange {
	var out []storage.ScanRange
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Start
		if b[j].Start > lo {
			lo = b[j].Start
		}
		hi := a[i].End
		if b[j].End < hi {
			hi = b[j].End
		}
		if lo < hi {
			out = append(out, storage.ScanRange{Start: lo, End: hi})
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}
