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

// Ordering describes that a node's output is sorted on one output column.
type Ordering struct {
	Col  int
	Desc bool
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
// cross-partition stream preserves the indexed column's sort order (only
// meaningful for ExcludePatches on a NSC index).
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

// OrderingOf infers the single-column sort order of a node's output, if any.
func OrderingOf(n Node) (Ordering, bool) {
	switch x := n.(type) {
	case *ScanNode:
		if key := x.Table.SortKey(); key != "" {
			for i, c := range x.cols {
				if c.SourceCol == key && c.SourceTable == x.Table.Name() {
					return Ordering{Col: i}, true
				}
			}
		}
		return Ordering{}, false
	case *PatchScanNode:
		if x.Mode == exec.ExcludePatches && x.Index.Constraint() == patch.NearlySorted && x.Ordered {
			for i, c := range x.cols {
				if c.SourceCol == x.Index.Column() {
					return Ordering{Col: i, Desc: x.Index.Descending()}, true
				}
			}
		}
		return Ordering{}, false
	case *FilterNode:
		return OrderingOf(x.Input)
	case *LimitNode:
		return OrderingOf(x.Input)
	case *ProjectNode:
		ord, ok := OrderingOf(x.Input)
		if !ok {
			return Ordering{}, false
		}
		for i, e := range x.Exprs {
			if ref, isRef := e.(*expr.ColRef); isRef && ref.Col == ord.Col {
				return Ordering{Col: i, Desc: ord.Desc}, true
			}
		}
		return Ordering{}, false
	case *SortNode:
		if len(x.Keys) > 0 {
			return Ordering{Col: x.Keys[0].Col, Desc: x.Keys[0].Desc}, true
		}
		return Ordering{}, false
	case *UnionNode:
		if x.Merge && len(x.Keys) > 0 {
			return Ordering{Col: x.Keys[0].Col, Desc: x.Keys[0].Desc}, true
		}
		return Ordering{}, false
	case *JoinNode:
		if x.Method == JoinMerge {
			return Ordering{Col: x.LeftKey}, true
		}
		return Ordering{}, false
	default:
		return Ordering{}, false
	}
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
