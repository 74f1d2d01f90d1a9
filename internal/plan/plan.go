// Package plan implements the logical query plan, the optimizer rewrites
// that exploit PatchIndexes (Section VI-B of the paper), and the translation
// into physical operator trees.
package plan

import (
	"fmt"
	"strings"

	"patchindex/internal/exec"
	"patchindex/internal/expr"
	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// Column describes one output column of a plan node, including the base
// table column it originates from (empty for computed columns). Provenance
// is what lets the rewriter trace a distinct/sort/join column back to a
// column a PatchIndex is defined on, through arbitrary subtrees X of
// selections and non-arithmetic projections.
type Column struct {
	Name        string
	Typ         vector.Type
	SourceTable string
	SourceCol   string
}

// Node is a logical plan operator.
type Node interface {
	// Schema returns the output columns.
	Schema() []Column
	// Children returns the input nodes.
	Children() []Node
	// Label renders the node (without children) for EXPLAIN.
	Label() string
}

// ScanNode reads all columns Cols (positions in the table schema) of a
// table. Part restricts the scan to a single partition (-1 = all).
type ScanNode struct {
	Table *storage.Table
	Cols  []int
	Part  int
	cols  []Column
}

// NewScanNode creates a scan of the given table columns.
func NewScanNode(t *storage.Table, cols []int) *ScanNode {
	s := &ScanNode{Table: t, Cols: cols, Part: -1}
	schema := t.Schema()
	for _, c := range cols {
		s.cols = append(s.cols, Column{
			Name:        schema.Columns[c].Name,
			Typ:         schema.Columns[c].Typ,
			SourceTable: t.Name(),
			SourceCol:   schema.Columns[c].Name,
		})
	}
	return s
}

// Schema returns the scanned columns.
func (s *ScanNode) Schema() []Column { return s.cols }

// Children returns nil.
func (s *ScanNode) Children() []Node { return nil }

// Label renders the scan.
func (s *ScanNode) Label() string {
	names := make([]string, len(s.cols))
	for i, c := range s.cols {
		names[i] = c.Name
	}
	return fmt.Sprintf("Scan %s [%s]", s.Table.Name(), strings.Join(names, ", "))
}

// PatchScanNode is a PatchedScan: a scan with a PatchSelect in the given
// mode directly on top (per partition). Ordered requests that the combined
// cross-partition stream preserves the indexed column's sort order; PropsOf
// grants it only to ExcludePatches on a NSC index, and a build refuses it
// anywhere else.
type PatchScanNode struct {
	Table   *storage.Table
	Cols    []int
	Index   *patch.Index
	Mode    exec.SelectMode
	Ordered bool
	// Part restricts the patched scan to one partition (-1 = all); the join
	// rewrite uses this to keep merge joins partition-local.
	Part int
	cols []Column
}

// NewPatchScanNode creates a patched scan over all partitions.
func NewPatchScanNode(t *storage.Table, cols []int, ix *patch.Index, mode exec.SelectMode, ordered bool) *PatchScanNode {
	base := NewScanNode(t, cols)
	return &PatchScanNode{Table: t, Cols: cols, Index: ix, Mode: mode, Ordered: ordered, Part: -1, cols: base.cols}
}

// Schema returns the scanned columns.
func (s *PatchScanNode) Schema() []Column { return s.cols }

// Children returns nil.
func (s *PatchScanNode) Children() []Node { return nil }

// Label renders the patched scan.
func (s *PatchScanNode) Label() string {
	ord := ""
	if s.Ordered {
		ord = ", ordered"
	}
	part := ""
	if s.Part >= 0 {
		part = fmt.Sprintf(", p%d", s.Part)
	}
	return fmt.Sprintf("PatchedScan %s [%s on %s%s%s]", s.Table.Name(), s.Mode, s.Index.Column(), ord, part)
}

// validate refuses a patched scan that cannot be built: an index not built
// or partitioned unlike the table, or an Ordered request PropsOf cannot
// honour.
func (s *PatchScanNode) validate() error {
	ix := s.Index
	if !ix.Ready() {
		return fmt.Errorf("plan: PatchIndex on %s.%s is not built", ix.Table(), ix.Column())
	}
	if ix.NumPartitions() != s.Table.NumPartitions() {
		return fmt.Errorf("plan: PatchIndex on %s.%s has %d partitions, table has %d",
			ix.Table(), ix.Column(), ix.NumPartitions(), s.Table.NumPartitions())
	}
	if s.Ordered && len(PropsOf(s).Order) == 0 {
		return fmt.Errorf("plan: ordered patched scan needs an exclude-mode NSC index and column %s in the scan list", ix.Column())
	}
	return nil
}

// FilterNode applies a boolean predicate bound to the child schema.
type FilterNode struct {
	Input Node
	Pred  expr.Expr
}

// NewFilterNode creates a filter.
func NewFilterNode(in Node, pred expr.Expr) *FilterNode { return &FilterNode{Input: in, Pred: pred} }

// Schema returns the child schema.
func (f *FilterNode) Schema() []Column { return f.Input.Schema() }

// Children returns the input.
func (f *FilterNode) Children() []Node { return []Node{f.Input} }

// Label renders the filter.
func (f *FilterNode) Label() string { return fmt.Sprintf("Filter %s", f.Pred) }

// ProjectNode evaluates expressions over the child. Plain column references
// keep their provenance; computed expressions lose it.
type ProjectNode struct {
	Input Node
	Exprs []expr.Expr
	Names []string
	cols  []Column
}

// NewProjectNode creates a projection. Names must match Exprs in length.
func NewProjectNode(in Node, exprs []expr.Expr, names []string) (*ProjectNode, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("plan: projection has %d expressions but %d names", len(exprs), len(names))
	}
	p := &ProjectNode{Input: in, Exprs: exprs, Names: names}
	childCols := in.Schema()
	for i, e := range exprs {
		col := Column{Name: names[i], Typ: e.Type()}
		if ref, ok := e.(*expr.ColRef); ok && ref.Col < len(childCols) {
			col.SourceTable = childCols[ref.Col].SourceTable
			col.SourceCol = childCols[ref.Col].SourceCol
		}
		p.cols = append(p.cols, col)
	}
	return p, nil
}

// Schema returns the projected columns.
func (p *ProjectNode) Schema() []Column { return p.cols }

// Children returns the input.
func (p *ProjectNode) Children() []Node { return []Node{p.Input} }

// Label renders the projection.
func (p *ProjectNode) Label() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return fmt.Sprintf("Project [%s]", strings.Join(parts, ", "))
}

// AggregateNode is a hash aggregation over group columns (child positions)
// with aggregate functions. With no Aggs it is a DISTINCT.
type AggregateNode struct {
	Input     Node
	GroupCols []int
	Aggs      []exec.AggSpec
	AggNames  []string
	cols      []Column
}

// NewAggregateNode creates an aggregation.
func NewAggregateNode(in Node, groupCols []int, aggs []exec.AggSpec, aggNames []string) (*AggregateNode, error) {
	if len(aggs) != len(aggNames) {
		return nil, fmt.Errorf("plan: aggregation has %d specs but %d names", len(aggs), len(aggNames))
	}
	childCols := in.Schema()
	childTypes := make([]vector.Type, len(childCols))
	for i, c := range childCols {
		childTypes[i] = c.Typ
	}
	a := &AggregateNode{Input: in, GroupCols: groupCols, Aggs: aggs, AggNames: aggNames}
	for _, g := range groupCols {
		if g < 0 || g >= len(childCols) {
			return nil, fmt.Errorf("plan: group column %d out of range", g)
		}
		a.cols = append(a.cols, childCols[g])
	}
	for i, spec := range aggs {
		a.cols = append(a.cols, Column{Name: aggNames[i], Typ: spec.ResultType(childTypes)})
	}
	return a, nil
}

// Schema returns group columns followed by aggregate results.
func (a *AggregateNode) Schema() []Column { return a.cols }

// Children returns the input.
func (a *AggregateNode) Children() []Node { return []Node{a.Input} }

// IsDistinct reports whether the node is a pure DISTINCT.
func (a *AggregateNode) IsDistinct() bool { return len(a.Aggs) == 0 }

// Label renders the aggregation.
func (a *AggregateNode) Label() string {
	if a.IsDistinct() {
		return "Distinct"
	}
	parts := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		parts[i] = s.Func.String()
	}
	return fmt.Sprintf("Aggregate groups=%v [%s]", a.GroupCols, strings.Join(parts, ", "))
}

// SortNode sorts its input on the given keys.
type SortNode struct {
	Input Node
	Keys  []exec.SortKey
}

// NewSortNode creates a sort.
func NewSortNode(in Node, keys []exec.SortKey) *SortNode { return &SortNode{Input: in, Keys: keys} }

// Schema returns the child schema.
func (s *SortNode) Schema() []Column { return s.Input.Schema() }

// Children returns the input.
func (s *SortNode) Children() []Node { return []Node{s.Input} }

// Label renders the sort.
func (s *SortNode) Label() string {
	parts := make([]string, len(s.Keys))
	cols := s.Input.Schema()
	for i, k := range s.Keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("%s %s", cols[k.Col].Name, dir)
	}
	return fmt.Sprintf("Sort [%s]", strings.Join(parts, ", "))
}

// JoinMethod selects the physical join algorithm.
type JoinMethod uint8

// Join methods.
const (
	// JoinAuto lets the planner pick (hash join, build side by cardinality).
	JoinAuto JoinMethod = iota
	// JoinHash forces a hash join.
	JoinHash
	// JoinMerge forces a merge join (both inputs must be sorted on the key).
	JoinMerge
)

// JoinNode is an equi-join on single key columns; Outer selects LEFT OUTER
// semantics (unmatched left rows padded with NULLs).
type JoinNode struct {
	Left, Right       Node
	LeftKey, RightKey int
	Method            JoinMethod
	Outer             bool
	BuildLeft         bool // hash join build side; set by the optimizer
	buildSideDecided  bool
	cols              []Column
}

// JoinKeyTypeError rejects an equi-join whose key columns have different
// types. BIGINT and DATE count as one type, because both compare as int64;
// no other pair is coerced, so neither join kernel ever sees mixed keys.
type JoinKeyTypeError struct {
	Left, Right Column
}

func (e *JoinKeyTypeError) Error() string {
	return fmt.Sprintf("plan: join keys %s (%s) and %s (%s) have different types",
		e.Left.Name, e.Left.Typ, e.Right.Name, e.Right.Typ)
}

// NewJoinNode creates an inner equi-join. The key columns must be of one
// type (see JoinKeyTypeError).
func NewJoinNode(l, r Node, leftKey, rightKey int) (*JoinNode, error) {
	lc, rc := l.Schema(), r.Schema()
	if leftKey < 0 || leftKey >= len(lc) {
		return nil, fmt.Errorf("plan: left join key %d out of range", leftKey)
	}
	if rightKey < 0 || rightKey >= len(rc) {
		return nil, fmt.Errorf("plan: right join key %d out of range", rightKey)
	}
	if !vector.KeyCompatible(lc[leftKey].Typ, rc[rightKey].Typ) {
		return nil, &JoinKeyTypeError{Left: lc[leftKey], Right: rc[rightKey]}
	}
	j := &JoinNode{Left: l, Right: r, LeftKey: leftKey, RightKey: rightKey}
	j.cols = append(append([]Column{}, lc...), rc...)
	return j, nil
}

// Schema returns left columns followed by right columns.
func (j *JoinNode) Schema() []Column { return j.cols }

// Children returns both inputs.
func (j *JoinNode) Children() []Node { return []Node{j.Left, j.Right} }

// Label renders the join.
func (j *JoinNode) Label() string {
	name := "Join(auto)"
	switch j.Method {
	case JoinHash:
		name = "HashJoin"
		if j.Outer {
			name = "LeftOuterHashJoin"
		}
		if j.buildSideDecided {
			if j.BuildLeft {
				name += "(build=left)"
			} else {
				name += "(build=right)"
			}
		}
	case JoinMerge:
		name = "MergeJoin"
	}
	return fmt.Sprintf("%s %s = %s", name, j.cols[j.LeftKey].Name, j.Schema()[len(j.Left.Schema())+j.RightKey].Name)
}

// UnionNode combines children. With Merge set the children are each sorted
// on Keys and the union performs an order-preserving merge (the MergeUnion
// of the sort rewrite).
type UnionNode struct {
	Inputs []Node
	Merge  bool
	Keys   []exec.SortKey
}

// NewUnionNode creates a (merge) union of schema-compatible children.
func NewUnionNode(merge bool, keys []exec.SortKey, inputs ...Node) (*UnionNode, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("plan: union needs at least one input")
	}
	s0 := inputs[0].Schema()
	for _, in := range inputs[1:] {
		s := in.Schema()
		if len(s) != len(s0) {
			return nil, fmt.Errorf("plan: union inputs have different column counts")
		}
		for i := range s {
			if s[i].Typ != s0[i].Typ {
				return nil, fmt.Errorf("plan: union input column %d type mismatch", i)
			}
		}
	}
	return &UnionNode{Inputs: inputs, Merge: merge, Keys: keys}, nil
}

// Schema returns the first child's schema.
func (u *UnionNode) Schema() []Column { return u.Inputs[0].Schema() }

// Children returns the inputs.
func (u *UnionNode) Children() []Node { return u.Inputs }

// Label renders the union.
func (u *UnionNode) Label() string {
	if u.Merge {
		return "MergeUnion"
	}
	return "Union"
}

// LimitNode truncates the input to N rows.
type LimitNode struct {
	Input Node
	N     int
}

// NewLimitNode creates a limit.
func NewLimitNode(in Node, n int) *LimitNode { return &LimitNode{Input: in, N: n} }

// Schema returns the child schema.
func (l *LimitNode) Schema() []Column { return l.Input.Schema() }

// Children returns the input.
func (l *LimitNode) Children() []Node { return []Node{l.Input} }

// Label renders the limit.
func (l *LimitNode) Label() string { return fmt.Sprintf("Limit %d", l.N) }

// Props are what a plan promises about its rows, derived bottom-up by
// PropsOf. A property may be under-claimed, never over-claimed.
type Props struct {
	// Order is the sort keys the rows are sorted on; empty for none.
	Order []exec.SortKey
	// Stable means the row order is identical on every run of this logical
	// plan, at any parallelism, kernel, pruning and storage setting.
	Stable bool
}

// PropsOf derives the props of n's output. Every consumer of a plan's row
// order reads it here: the join rewrite, the merge of a scan's partitions
// (partitionLeaves), the parallel split (splitPipelines) and the result
// cache.
func PropsOf(n Node) Props {
	switch x := n.(type) {
	case *ScanNode:
		// A declared sort key's partitions are merged by a MergeUnion.
		if pos := outputPos(x.Cols, x.Table, x.Table.SortKey()); pos >= 0 {
			return Props{Order: []exec.SortKey{{Col: pos}}, Stable: true}
		}
		return Props{Stable: onePartition(x.Table, x.Part)}
	case *PatchScanNode:
		// NSC1: minus its patches the indexed column is sorted, and an
		// Ordered request merges the partitions by a MergeUnion.
		if x.Ordered && x.Mode == exec.ExcludePatches && x.Index.Constraint() == patch.NearlySorted {
			if pos := outputPos(x.Cols, x.Table, x.Index.Column()); pos >= 0 {
				return Props{Order: []exec.SortKey{{Col: pos, Desc: x.Index.Descending()}}, Stable: true}
			}
		}
		return Props{Stable: onePartition(x.Table, x.Part)}
	case *FilterNode:
		return PropsOf(x.Input)
	case *LimitNode:
		return PropsOf(x.Input)
	case *ProjectNode:
		p := PropsOf(x.Input)
		order := p.Order
		p.Order = nil
	keys:
		for _, k := range order {
			for i, e := range x.Exprs {
				if ref, ok := e.(*expr.ColRef); ok && ref.Col == k.Col {
					p.Order = append(p.Order, exec.SortKey{Col: i, Desc: k.Desc})
					continue keys
				}
			}
			break // the rows are sorted on the keys projected so far
		}
		return p
	case *SortNode:
		return Props{Order: x.Keys, Stable: PropsOf(x.Input).Stable}
	case *UnionNode:
		// A plain Union becomes an Exchange at parallelism > 1.
		if !x.Merge {
			return Props{}
		}
		p := Props{Order: x.Keys, Stable: true}
		for _, in := range x.Inputs {
			p.Stable = p.Stable && PropsOf(in).Stable
		}
		return p
	case *JoinNode:
		p := Props{Stable: PropsOf(x.Left).Stable && PropsOf(x.Right).Stable}
		if x.Method == JoinMerge {
			p.Order = []exec.SortKey{{Col: x.LeftKey}}
		}
		return p
	case *AggregateNode:
		// One row, or groups numbered in first-occurrence order over
		// pipelines merged in child order.
		_, fixed := pipelines(x.Input)
		return Props{Stable: len(x.GroupCols) == 0 || fixed}
	default:
		return Props{}
	}
}

// onePartition reports whether a scan of partition part (-1: all) of t
// reads a single partition, which no Exchange reorders.
func onePartition(t *storage.Table, part int) bool {
	return part >= 0 || t.NumPartitions() == 1
}

// pipelines is the one predicate behind splitPipelines and a grouped
// aggregate's Stable. splits reports whether n decomposes into
// per-partition pipelines: a scan whose partitions need no ordered merge, a
// Filter or Project over such an input, or a plain Union, whose branches
// each contribute their pipelines or else themselves as one. fixed reports
// whether the rows reach those pipelines in the same order on every run,
// so that ParallelAgg, which merges its partials in pipeline order, emits
// its groups in one order; for an n that does not split it is n's Stable.
func pipelines(n Node) (splits, fixed bool) {
	switch x := n.(type) {
	case *ScanNode, *PatchScanNode:
		return len(PropsOf(n).Order) == 0, true
	case *FilterNode, *ProjectNode:
		return pipelines(inputOf(n))
	case *UnionNode:
		if !x.Merge {
			fixed = true
			for _, in := range x.Inputs {
				_, f := pipelines(in)
				fixed = fixed && f
			}
			return true, fixed
		}
	}
	return false, PropsOf(n).Stable
}

// sortedOn reports whether n's rows are sorted ascending on column col.
func sortedOn(n Node, col int) bool {
	p := PropsOf(n)
	return len(p.Order) > 0 && p.Order[0] == exec.SortKey{Col: col}
}

// EstimateRows returns a rough output cardinality used for join build-side
// selection (Section VI-B3: "we can choose the join side with the lower
// cardinality as the side to build the hash table on").
func EstimateRows(n Node) int {
	switch x := n.(type) {
	case *ScanNode:
		if x.Part >= 0 {
			return x.Table.Partition(x.Part).NumRows()
		}
		return x.Table.NumRows()
	case *PatchScanNode:
		rows, card := x.Table.NumRows(), x.Index.Cardinality()
		if x.Part >= 0 {
			rows = x.Table.Partition(x.Part).NumRows()
			if set := x.Index.Partition(x.Part); set != nil {
				card = set.Cardinality()
			}
		}
		if x.Mode == exec.UsePatches {
			return card
		}
		return rows - card
	case *FilterNode:
		// Default selectivity of 1/3 without statistics.
		return EstimateRows(x.Input)/3 + 1
	case *ProjectNode:
		return EstimateRows(x.Input)
	case *AggregateNode:
		// Guess: grouping reduces cardinality by an order of magnitude.
		return EstimateRows(x.Input)/10 + 1
	case *SortNode:
		return EstimateRows(x.Input)
	case *LimitNode:
		r := EstimateRows(x.Input)
		if x.N < r {
			return x.N
		}
		return r
	case *UnionNode:
		total := 0
		for _, in := range x.Inputs {
			total += EstimateRows(in)
		}
		return total
	case *JoinNode:
		l, r := EstimateRows(x.Left), EstimateRows(x.Right)
		// Assume a key/foreign-key join: output ~ the larger side.
		if l > r {
			return l
		}
		return r
	default:
		return 1000
	}
}

// Explain renders the plan tree with indentation.
func Explain(n Node) string {
	var sb strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Label())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}
