package plan

import (
	"fmt"

	"patchindex/internal/catalog"
	"patchindex/internal/exec"
	"patchindex/internal/expr"
	"patchindex/internal/obs"
	"patchindex/internal/patch"
)

// Optimizer rewrites logical plans to exploit PatchIndexes registered in the
// catalog, implementing the three use cases of Section VI-B: distinct
// queries over nearly unique columns, and sort and join queries over nearly
// sorted columns. Setting DisablePatchRewrites turns the optimizer into a
// pass-through (used as the baseline in every benchmark).
type Optimizer struct {
	Cat                  *catalog.Catalog
	DisablePatchRewrites bool
	// CostBased gates every rewrite on the cost model: the rewritten plan is
	// kept only if its estimated cost is lower than the original's (the
	// integration of the future-work cost model into query optimization).
	CostBased bool
	// RewritesFired and RewritesRejected, when set, count rewrites that were
	// applied and rewrites that matched but lost the cost comparison. Nil
	// counters no-op, so wiring them is optional.
	RewritesFired    *obs.Counter
	RewritesRejected *obs.Counter
	// Workload, when set, receives benefit attribution (which index enabled
	// each accepted rewrite, with cost-model deltas) and shadow
	// "would-have-helped" notes for rewrite shapes that matched without an
	// applicable index. Nil no-ops.
	Workload *obs.StmtObs

	// pending carries the enabling-index identity from the rewrite function
	// that matched to accept, which stamps the cost delta.
	pending *obs.RewriteNote
}

// constraintTag is the short constraint name used in workload attribution
// keys ("nuc"/"nsc").
func constraintTag(c patch.Constraint) string {
	if c == patch.NearlySorted {
		return "nsc"
	}
	return "nuc"
}

// noteRewrite remembers the index that enabled the rewrite about to be
// offered to accept.
func (o *Optimizer) noteRewrite(ix *patch.Index) {
	if o.Workload != nil && ix != nil {
		o.pending = &obs.RewriteNote{
			Table: ix.Table(), Column: ix.Column(),
			Constraint: constraintTag(ix.Constraint()),
		}
	}
}

// noteShadow records a would-have-helped estimate: the rewrite shape
// matched, but no applicable PatchIndex exists on the source column.
func (o *Optimizer) noteShadow(n Node, col int, constraint, shape string, savings float64) {
	if o.Workload == nil || savings <= 0 {
		return
	}
	cols := n.Schema()
	if col < 0 || col >= len(cols) || cols[col].SourceTable == "" {
		return
	}
	o.Workload.AddShadow(obs.ShadowNote{
		Table: cols[col].SourceTable, Column: cols[col].SourceCol,
		Constraint: constraint, Shape: shape, Savings: savings,
	})
}

// Optimize rewrites the plan bottom-up and returns the (possibly new) root.
// Input nodes may be mutated.
func (o *Optimizer) Optimize(n Node) (Node, error) {
	// Optimize children first; rewrites only apply when the subtree below is
	// a plain Filter/Project chain, so the paper's "lowest aggregation /
	// lowest join" restriction is honored automatically.
	switch x := n.(type) {
	case *FilterNode:
		in, err := o.Optimize(x.Input)
		if err != nil {
			return nil, err
		}
		x.Input = in
	case *ProjectNode:
		in, err := o.Optimize(x.Input)
		if err != nil {
			return nil, err
		}
		x.Input = in
	case *AggregateNode:
		in, err := o.Optimize(x.Input)
		if err != nil {
			return nil, err
		}
		x.Input = in
	case *SortNode:
		in, err := o.Optimize(x.Input)
		if err != nil {
			return nil, err
		}
		x.Input = in
	case *LimitNode:
		in, err := o.Optimize(x.Input)
		if err != nil {
			return nil, err
		}
		x.Input = in
	case *JoinNode:
		l, err := o.Optimize(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := o.Optimize(x.Right)
		if err != nil {
			return nil, err
		}
		x.Left, x.Right = l, r
	case *UnionNode:
		for i, in := range x.Inputs {
			ni, err := o.Optimize(in)
			if err != nil {
				return nil, err
			}
			x.Inputs[i] = ni
		}
	}

	if !o.DisablePatchRewrites {
		switch x := n.(type) {
		case *AggregateNode:
			if nn, ok, err := o.rewriteDistinct(x); err != nil {
				return nil, err
			} else if ok {
				if o.accept(n, nn) {
					return nn, nil
				}
			}
			if nn, ok, err := o.rewriteCountDistinct(x); err != nil {
				return nil, err
			} else if ok {
				if o.accept(n, nn) {
					return nn, nil
				}
			}
		case *SortNode:
			if nn, ok, err := o.rewriteSort(x); err != nil {
				return nil, err
			} else if ok {
				if o.accept(n, nn) {
					return nn, nil
				}
			}
		case *JoinNode:
			if nn, ok, err := o.rewriteJoin(x); err != nil {
				return nil, err
			} else if ok {
				if o.accept(n, nn) {
					return nn, nil
				}
			}
		}
	}

	// Build-side selection for remaining hash joins (outer joins always
	// build on the right so the preserved side streams through the probe).
	if j, ok := n.(*JoinNode); ok && j.Method != JoinMerge {
		j.Method = JoinHash
		j.BuildLeft = !j.Outer && EstimateRows(j.Left) < EstimateRows(j.Right)
		j.buildSideDecided = true
	}
	return n, nil
}

// accept decides whether a rewritten plan replaces the original. Without
// cost-based optimization every applicable rewrite is taken (the paper's
// behaviour); with it, the rewrite must be estimated cheaper. Accepted
// rewrites are attributed to their enabling index (noted by the rewrite
// function via noteRewrite) with the cost-model delta.
func (o *Optimizer) accept(orig, rewritten Node) bool {
	pending := o.pending
	o.pending = nil
	var cb, cr float64
	if o.CostBased || pending != nil {
		cb, cr = Cost(orig), Cost(rewritten)
	}
	if !o.CostBased || cr < cb {
		o.RewritesFired.Inc()
		if pending != nil {
			pending.CostBase, pending.CostRewritten = cb, cr
			o.Workload.AddRewrite(*pending)
		}
		return true
	}
	o.RewritesRejected.Inc()
	return false
}

// matchChain matches a subtree X consisting only of Filter and Project nodes
// over a single ScanNode — the shape the paper's rewrites allow ("X may
// consist of selections and non-arithmetic projections"). It returns the
// scan leaf and a rebuild function that clones X over a replacement leaf
// with an identical schema.
func matchChain(n Node) (*ScanNode, func(Node) (Node, error), bool) {
	switch x := n.(type) {
	case *ScanNode:
		return x, func(leaf Node) (Node, error) { return leaf, nil }, true
	case *FilterNode:
		leaf, rb, ok := matchChain(x.Input)
		if !ok {
			return nil, nil, false
		}
		return leaf, func(nl Node) (Node, error) {
			in, err := rb(nl)
			if err != nil {
				return nil, err
			}
			return NewFilterNode(in, x.Pred), nil
		}, true
	case *ProjectNode:
		leaf, rb, ok := matchChain(x.Input)
		if !ok {
			return nil, nil, false
		}
		return leaf, func(nl Node) (Node, error) {
			in, err := rb(nl)
			if err != nil {
				return nil, err
			}
			return NewProjectNode(in, x.Exprs, x.Names)
		}, true
	default:
		return nil, nil, false
	}
}

// indexOn finds a ready PatchIndex with the given constraint on the base
// column that output column col of node n originates from.
func (o *Optimizer) indexOn(n Node, col int, c patch.Constraint) *patch.Index {
	cols := n.Schema()
	if col < 0 || col >= len(cols) {
		return nil
	}
	src := cols[col]
	if src.SourceTable == "" || src.SourceCol == "" {
		return nil
	}
	return o.Cat.IndexFor(src.SourceTable, src.SourceCol, c)
}

// rewriteDistinct implements the distinct use case (Section VI-B1, left side
// of Figure 3): Distinct(X(Scan)) becomes
//
//	Union( X(ExcludePatches(Scan)), Distinct(X(UsePatches(Scan))) )
//
// The exclude branch needs no aggregation: the PatchIndex guarantees its
// values are already unique, and condition (NUC2) guarantees the two
// branches cannot share values.
func (o *Optimizer) rewriteDistinct(a *AggregateNode) (Node, bool, error) {
	if !a.IsDistinct() {
		return nil, false, nil
	}
	leaf, rebuild, ok := matchChain(a.Input)
	if !ok {
		return nil, false, nil
	}
	// One of the distinct columns must carry a NUC PatchIndex.
	var ix *patch.Index
	for _, g := range a.GroupCols {
		if ix = o.indexOn(a.Input, g, patch.NearlyUnique); ix != nil {
			break
		}
	}
	if ix == nil || ix.Table() != leaf.Table.Name() {
		// The rewrite shape matched but no index exists: shadow-account what
		// a NUC index on the first distinct column would have saved.
		if len(a.GroupCols) > 0 {
			o.noteShadow(a.Input, a.GroupCols[0], "nuc", "distinct",
				ShadowDistinctSavings(int64(leaf.Table.NumRows())))
		}
		return nil, false, nil
	}
	o.noteRewrite(ix)
	// The distinct output schema keeps only the group columns.
	u, err := nucUnion(leaf, rebuild, ix, a.GroupCols)
	if err != nil {
		return nil, false, err
	}
	return u, true, nil
}

// nucUnion builds the two branches of a NUC rewrite over a matched chain X
// and joins them:
//
//	Union( X(ExcludePatches(Scan)), Distinct(X(UsePatches(Scan))) )
//
// Both branches are narrowed to the chain output columns cols, so the union
// schema is exactly those columns.
func nucUnion(leaf *ScanNode, rebuild func(Node) (Node, error), ix *patch.Index, cols []int) (*UnionNode, error) {
	branch := func(mode exec.SelectMode) (Node, error) {
		x, err := rebuild(NewPatchScanNode(leaf.Table, leaf.Cols, ix, mode, false))
		if err != nil {
			return nil, err
		}
		return projectTo(x, cols)
	}
	excl, err := branch(exec.ExcludePatches)
	if err != nil {
		return nil, err
	}
	useX, err := branch(exec.UsePatches)
	if err != nil {
		return nil, err
	}
	groupAll := make([]int, len(cols))
	for i := range groupAll {
		groupAll[i] = i
	}
	use, err := NewAggregateNode(useX, groupAll, nil, nil)
	if err != nil {
		return nil, err
	}
	return NewUnionNode(false, nil, excl, use)
}

// projectTo narrows a node to the given child column positions (no-op if
// they already are exactly 0..n-1 of the schema).
func projectTo(n Node, cols []int) (Node, error) {
	schema := n.Schema()
	identity := len(cols) == len(schema)
	if identity {
		for i, c := range cols {
			if c != i {
				identity = false
				break
			}
		}
	}
	if identity {
		return n, nil
	}
	exprs := make([]expr.Expr, len(cols))
	names := make([]string, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(schema) {
			return nil, fmt.Errorf("plan: projectTo column %d out of range", c)
		}
		exprs[i] = expr.NewColRef(c, schema[c].Typ, schema[c].Name)
		names[i] = schema[c].Name
	}
	return NewProjectNode(n, exprs, names)
}

// rewriteCountDistinct handles the evaluation's count-distinct queries:
// Aggregate[COUNT(DISTINCT c)] without grouping becomes
//
//	Aggregate[COUNT(c)]( Union( X(Excl(Scan)).c, Distinct(X(Use(Scan)).c) ) )
//
// COUNT skips NULLs, and NULLs are always patches, so the exclude branch
// contributes exactly its (all unique, non-NULL) values.
func (o *Optimizer) rewriteCountDistinct(a *AggregateNode) (Node, bool, error) {
	if len(a.GroupCols) != 0 || len(a.Aggs) != 1 || a.Aggs[0].Func != exec.CountDistinct {
		return nil, false, nil
	}
	col := a.Aggs[0].Col
	leaf, rebuild, ok := matchChain(a.Input)
	if !ok {
		return nil, false, nil
	}
	ix := o.indexOn(a.Input, col, patch.NearlyUnique)
	if ix == nil || ix.Table() != leaf.Table.Name() {
		o.noteShadow(a.Input, col, "nuc", "count_distinct",
			ShadowDistinctSavings(int64(leaf.Table.NumRows())))
		return nil, false, nil
	}
	o.noteRewrite(ix)
	u, err := nucUnion(leaf, rebuild, ix, []int{col})
	if err != nil {
		return nil, false, err
	}
	cnt, err := NewAggregateNode(u, nil, []exec.AggSpec{{Func: exec.Count, Col: 0}}, []string{a.AggNames[0]})
	if err != nil {
		return nil, false, err
	}
	return cnt, true, nil
}

// rewriteSort implements the sort use case (Section VI-B2): Sort(X(Scan))
// on a nearly sorted column becomes
//
//	MergeUnion( X(ExcludePatches(Scan)), Sort(X(UsePatches(Scan))) )
//
// The exclude branch is already sorted by the NSC definition; only the
// patches are sorted, and a MergeUnion combines the two sorted dataflows.
func (o *Optimizer) rewriteSort(s *SortNode) (Node, bool, error) {
	if len(s.Keys) != 1 {
		return nil, false, nil
	}
	key := s.Keys[0]
	ix := o.indexOn(s.Input, key.Col, patch.NearlySorted)
	if ix == nil || ix.Descending() != key.Desc {
		if ix == nil {
			if leaf, _, ok := matchChain(s.Input); ok {
				o.noteShadow(s.Input, key.Col, "nsc", "sort",
					ShadowSortSavings(int64(leaf.Table.NumRows())))
			}
		}
		return nil, false, nil
	}
	leaf, rebuild, ok := matchChain(s.Input)
	if !ok || ix.Table() != leaf.Table.Name() {
		return nil, false, nil
	}
	o.noteRewrite(ix)
	exclLeaf := NewPatchScanNode(leaf.Table, leaf.Cols, ix, exec.ExcludePatches, true)
	useLeaf := NewPatchScanNode(leaf.Table, leaf.Cols, ix, exec.UsePatches, false)
	exclBranch, err := rebuild(exclLeaf)
	if err != nil {
		return nil, false, err
	}
	useX, err := rebuild(useLeaf)
	if err != nil {
		return nil, false, err
	}
	useBranch := NewSortNode(useX, s.Keys)
	u, err := NewUnionNode(true, s.Keys, exclBranch, useBranch)
	if err != nil {
		return nil, false, err
	}
	return u, true, nil
}

// rewriteJoin implements the join use case (Section VI-B3, right side of
// Figure 3): a join of a sorted subtree X with Y(Scan T) on a nearly sorted
// join column of T becomes
//
//	Union( MergeJoin(X, Y(Excl(Scan))), HashJoin(X, Y(Use(Scan))) )
//
// The MergeJoin handles the major, sorted part of T; only the patches go
// through the hash join, whose build side is the smaller input.
func (o *Optimizer) rewriteJoin(j *JoinNode) (Node, bool, error) {
	if j.Method == JoinMerge || j.Outer {
		// Outer joins keep unmatched rows; splitting the inner side into
		// exclude/use branches would duplicate them. Not rewritten.
		return nil, false, nil
	}
	// Try the canonical orientation (indexed table on the right), then the
	// mirror image.
	if n, ok, err := o.tryJoinRewrite(j, false); err != nil || ok {
		return n, ok, err
	}
	return o.tryJoinRewrite(j, true)
}

func (o *Optimizer) tryJoinRewrite(j *JoinNode, mirrored bool) (Node, bool, error) {
	outer, inner := j.Left, j.Right
	outerKey, innerKey := j.LeftKey, j.RightKey
	if mirrored {
		outer, inner = inner, outer
		outerKey, innerKey = innerKey, outerKey
	}
	// The inner side must be a Filter/Project chain over the indexed table.
	ix := o.indexOn(inner, innerKey, patch.NearlySorted)
	if ix == nil || ix.Descending() {
		if ix == nil {
			// Shadow-account only when the rest of the shape would have
			// allowed the rewrite (chain inner, sorted outer).
			if leaf, _, ok := matchChain(inner); ok {
				if sortedOn(outer, outerKey) {
					o.noteShadow(inner, innerKey, "nsc", "join",
						ShadowJoinSavings(int64(leaf.Table.NumRows())))
				}
			}
		}
		return nil, false, nil
	}
	leaf, rebuild, ok := matchChain(inner)
	if !ok || ix.Table() != leaf.Table.Name() {
		return nil, false, nil
	}
	// The outer side must be sorted ascending on its join key.
	if !sortedOn(outer, outerKey) {
		return nil, false, nil
	}
	mkJoin := func(inner Node, method JoinMethod) (*JoinNode, error) {
		var nj *JoinNode
		var err error
		if mirrored {
			nj, err = NewJoinNode(inner, outer, innerKey, outerKey)
		} else {
			nj, err = NewJoinNode(outer, inner, outerKey, innerKey)
		}
		if err != nil {
			return nil, err
		}
		nj.Method = method
		return nj, nil
	}

	// One merge join per partition of the indexed table: each partition's
	// exclude-branch is locally sorted, so "sorts and MergeJoins can also be
	// evaluated locally" (Section VI-A2) against the replicated sorted outer
	// side, avoiding a cross-partition merge of the fact table.
	var branches []Node
	for p := 0; p < leaf.Table.NumPartitions(); p++ {
		exclLeaf := NewPatchScanNode(leaf.Table, leaf.Cols, ix, exec.ExcludePatches, true)
		exclLeaf.Part = p
		exclBranch, err := rebuild(exclLeaf)
		if err != nil {
			return nil, false, err
		}
		mj, err := mkJoin(exclBranch, JoinMerge)
		if err != nil {
			return nil, false, err
		}
		branches = append(branches, mj)
	}

	useLeaf := NewPatchScanNode(leaf.Table, leaf.Cols, ix, exec.UsePatches, false)
	useBranch, err := rebuild(useLeaf)
	if err != nil {
		return nil, false, err
	}
	hj, err := mkJoin(useBranch, JoinHash)
	if err != nil {
		return nil, false, err
	}
	// |P_c| is known exactly; the outer estimate decides the build side.
	if mirrored {
		hj.BuildLeft = EstimateRows(useBranch) < EstimateRows(outer)
	} else {
		hj.BuildLeft = EstimateRows(outer) < EstimateRows(useBranch)
	}
	hj.buildSideDecided = true
	branches = append(branches, hj)
	u, err := NewUnionNode(false, nil, branches...)
	if err != nil {
		return nil, false, err
	}
	o.noteRewrite(ix)
	return u, true, nil
}
