package plan

import (
	"strings"
	"testing"

	"patchindex/internal/catalog"
	"patchindex/internal/discovery"
	"patchindex/internal/exec"
	"patchindex/internal/expr"
	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// fixture builds a catalog with:
//   - fact(k BIGINT, v BIGINT): 2 partitions, k nearly sorted (1 exception),
//     v nearly unique (2 duplicate rows)
//   - dim(pk BIGINT, label VARCHAR): 1 partition, sorted on pk
type fixture struct {
	cat  *catalog.Catalog
	fact *storage.Table
	dim  *storage.Table
	nsc  *patch.Index
	nuc  *patch.Index
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cat := catalog.New()
	fact, err := storage.NewTable("fact", storage.NewSchema(
		storage.Column{Name: "k", Typ: vector.Int64},
		storage.Column{Name: "v", Typ: vector.Int64},
	), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Partition 0: k sorted except one row; v has a duplicate pair.
	k0 := vector.NewFromInt64([]int64{1, 2, 99, 3, 4})
	v0 := vector.NewFromInt64([]int64{10, 11, 12, 12, 13})
	if err := fact.AppendColumns(0, []*vector.Vector{k0, v0}); err != nil {
		t.Fatal(err)
	}
	k1 := vector.NewFromInt64([]int64{5, 6, 7, 8, 9})
	v1 := vector.NewFromInt64([]int64{14, 15, 16, 17, 18})
	if err := fact.AppendColumns(1, []*vector.Vector{k1, v1}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(fact); err != nil {
		t.Fatal(err)
	}

	dim, err := storage.NewTable("dim", storage.NewSchema(
		storage.Column{Name: "pk", Typ: vector.Int64},
		storage.Column{Name: "label", Typ: vector.String},
	), 1)
	if err != nil {
		t.Fatal(err)
	}
	pk := vector.New(vector.Int64, 0)
	lbl := vector.New(vector.String, 0)
	for i := int64(1); i <= 10; i++ {
		pk.AppendInt64(i)
		lbl.AppendString("l")
	}
	if err := dim.AppendColumns(0, []*vector.Vector{pk, lbl}); err != nil {
		t.Fatal(err)
	}
	if err := dim.SetSortKey("pk"); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(dim); err != nil {
		t.Fatal(err)
	}

	nsc, err := discovery.BuildIndex(fact, "k", patch.NearlySorted, discovery.BuildOptions{Kind: patch.Auto, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(nsc); err != nil {
		t.Fatal(err)
	}
	nuc, err := discovery.BuildIndex(fact, "v", patch.NearlyUnique, discovery.BuildOptions{Kind: patch.Auto, Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(nuc); err != nil {
		t.Fatal(err)
	}
	return &fixture{cat: cat, fact: fact, dim: dim, nsc: nsc, nuc: nuc}
}

func optimize(t *testing.T, fx *fixture, n Node) Node {
	t.Helper()
	o := &Optimizer{Cat: fx.cat}
	out, err := o.Optimize(n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func factScan(fx *fixture) *ScanNode { return NewScanNode(fx.fact, []int{0, 1}) }

func TestOrderingOfScanWithSortKey(t *testing.T) {
	fx := newFixture(t)
	ord, ok := OrderingOf(NewScanNode(fx.dim, []int{0, 1}))
	if !ok || ord.Col != 0 || ord.Desc {
		t.Errorf("ordering = %+v, %v", ord, ok)
	}
	// Scan without the sort key column: no ordering.
	if _, ok := OrderingOf(NewScanNode(fx.dim, []int{1})); ok {
		t.Error("ordering without the key column")
	}
	// Unsorted table: no ordering.
	if _, ok := OrderingOf(factScan(fx)); ok {
		t.Error("fact table is not declared sorted")
	}
}

func TestOrderingOfPatchScan(t *testing.T) {
	fx := newFixture(t)
	ps := NewPatchScanNode(fx.fact, []int{0, 1}, fx.nsc, exec.ExcludePatches, true)
	ord, ok := OrderingOf(ps)
	if !ok || ord.Col != 0 {
		t.Errorf("patch scan ordering = %+v, %v", ord, ok)
	}
	// use_patches never claims ordering.
	if _, ok := OrderingOf(NewPatchScanNode(fx.fact, []int{0, 1}, fx.nsc, exec.UsePatches, false)); ok {
		t.Error("use_patches must not be ordered")
	}
	// Filter preserves, projection remaps.
	f := NewFilterNode(ps, expr.NewLiteral(vector.BoolValue(true)))
	if _, ok := OrderingOf(f); !ok {
		t.Error("filter should preserve ordering")
	}
	proj, err := NewProjectNode(f, []expr.Expr{expr.NewColRef(0, vector.Int64, "k")}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	ord, ok = OrderingOf(proj)
	if !ok || ord.Col != 0 {
		t.Error("projection should remap ordering")
	}
	// Projection dropping the ordered column loses ordering.
	proj2, _ := NewProjectNode(f, []expr.Expr{expr.NewColRef(1, vector.Int64, "v")}, []string{"v"})
	if _, ok := OrderingOf(proj2); ok {
		t.Error("dropping the ordered column must lose ordering")
	}
}

func TestEstimateRows(t *testing.T) {
	fx := newFixture(t)
	if got := EstimateRows(factScan(fx)); got != 10 {
		t.Errorf("scan estimate = %d", got)
	}
	use := NewPatchScanNode(fx.fact, []int{0, 1}, fx.nsc, exec.UsePatches, false)
	if got := EstimateRows(use); got != fx.nsc.Cardinality() {
		t.Errorf("use estimate = %d, want %d", got, fx.nsc.Cardinality())
	}
	excl := NewPatchScanNode(fx.fact, []int{0, 1}, fx.nsc, exec.ExcludePatches, false)
	if got := EstimateRows(excl); got != 10-fx.nsc.Cardinality() {
		t.Errorf("exclude estimate = %d", got)
	}
	lim := NewLimitNode(factScan(fx), 3)
	if got := EstimateRows(lim); got != 3 {
		t.Errorf("limit estimate = %d", got)
	}
}

func TestRewriteDistinctFires(t *testing.T) {
	fx := newFixture(t)
	agg, err := NewAggregateNode(factScan(fx), []int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, fx, agg)
	text := Explain(out)
	for _, frag := range []string{"Union", "exclude_patches", "use_patches", "Distinct"} {
		if !strings.Contains(text, frag) {
			t.Errorf("distinct rewrite missing %q:\n%s", frag, text)
		}
	}
}

func TestRewriteDistinctNoIndexNoFire(t *testing.T) {
	fx := newFixture(t)
	// Distinct on k (only a NSC index exists on k): no rewrite.
	agg, err := NewAggregateNode(factScan(fx), []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, fx, agg)
	if strings.Contains(Explain(out), "PatchedScan") {
		t.Errorf("rewrite fired without a NUC index:\n%s", Explain(out))
	}
}

func TestRewriteCountDistinctFires(t *testing.T) {
	fx := newFixture(t)
	agg, err := NewAggregateNode(factScan(fx), nil,
		[]exec.AggSpec{{Func: exec.CountDistinct, Col: 1}}, []string{"cd"})
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, fx, agg)
	text := Explain(out)
	if !strings.Contains(text, "PatchedScan") || !strings.Contains(text, "COUNT") {
		t.Errorf("count-distinct rewrite:\n%s", text)
	}
	// Output schema preserved (a single count column).
	if len(out.Schema()) != 1 || out.Schema()[0].Name != "cd" {
		t.Errorf("schema = %+v", out.Schema())
	}
}

func TestRewriteSortFires(t *testing.T) {
	fx := newFixture(t)
	s := NewSortNode(factScan(fx), []exec.SortKey{{Col: 0}})
	out := optimize(t, fx, s)
	text := Explain(out)
	if !strings.Contains(text, "MergeUnion") || !strings.Contains(text, "exclude_patches") {
		t.Errorf("sort rewrite:\n%s", text)
	}
}

func TestRewriteSortDirectionMismatch(t *testing.T) {
	fx := newFixture(t)
	s := NewSortNode(factScan(fx), []exec.SortKey{{Col: 0, Desc: true}})
	out := optimize(t, fx, s)
	if strings.Contains(Explain(out), "PatchedScan") {
		t.Error("descending sort must not use an ascending NSC index")
	}
}

func TestRewriteSortMultiKeyNoFire(t *testing.T) {
	fx := newFixture(t)
	s := NewSortNode(factScan(fx), []exec.SortKey{{Col: 0}, {Col: 1}})
	out := optimize(t, fx, s)
	if strings.Contains(Explain(out), "PatchedScan") {
		t.Error("multi-key sort must not be rewritten")
	}
}

func TestRewriteJoinFires(t *testing.T) {
	fx := newFixture(t)
	dimScan := NewScanNode(fx.dim, []int{0, 1})
	j, err := NewJoinNode(dimScan, factScan(fx), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, fx, j)
	text := Explain(out)
	for _, frag := range []string{"MergeJoin", "HashJoin", "use_patches", "exclude_patches"} {
		if !strings.Contains(text, frag) {
			t.Errorf("join rewrite missing %q:\n%s", frag, text)
		}
	}
	// One merge join per fact partition.
	if got := strings.Count(text, "MergeJoin"); got != fx.fact.NumPartitions() {
		t.Errorf("%d merge joins, want %d:\n%s", got, fx.fact.NumPartitions(), text)
	}
}

func TestRewriteJoinMirrored(t *testing.T) {
	fx := newFixture(t)
	// Indexed fact table on the LEFT side.
	j, err := NewJoinNode(factScan(fx), NewScanNode(fx.dim, []int{0, 1}), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, fx, j)
	if !strings.Contains(Explain(out), "MergeJoin") {
		t.Errorf("mirrored join rewrite did not fire:\n%s", Explain(out))
	}
	// Schema must stay (fact cols, dim cols).
	sch := out.Schema()
	if sch[0].SourceTable != "fact" || sch[2].SourceTable != "dim" {
		t.Errorf("schema order changed: %+v", sch)
	}
}

func TestRewriteJoinUnsortedOuterNoFire(t *testing.T) {
	fx := newFixture(t)
	// The outer side has no ordering (fact scan of the unsorted table);
	// no index on dim.pk side either -> no rewrite on that orientation, and
	// the fact side is indexed but the dim side is not sorted... dim IS
	// sorted. Use a copy of fact as outer instead: no ordering.
	j, err := NewJoinNode(factScan(fx), factScan(fx), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, fx, j)
	if strings.Contains(Explain(out), "MergeJoin") {
		t.Errorf("join rewrite fired without a sorted outer:\n%s", Explain(out))
	}
	// It still becomes a hash join with a decided build side.
	if !strings.Contains(Explain(out), "HashJoin(build=") {
		t.Errorf("build side undecided:\n%s", Explain(out))
	}
}

func TestRewriteThroughFilterChain(t *testing.T) {
	fx := newFixture(t)
	pred, err := expr.NewCmp(expr.GT, expr.NewColRef(1, vector.Int64, "v"), expr.NewLiteral(vector.IntValue(0)))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFilterNode(factScan(fx), pred)
	agg, err := NewAggregateNode(f, []int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, fx, agg)
	text := Explain(out)
	if !strings.Contains(text, "PatchedScan") {
		t.Errorf("rewrite must fire through filters:\n%s", text)
	}
	// The filter must appear in both branches (replicated subtree X).
	if strings.Count(text, "Filter") != 2 {
		t.Errorf("filter not replicated:\n%s", text)
	}
}

func TestRewriteBelowJoinBlocked(t *testing.T) {
	fx := newFixture(t)
	// Distinct over a join result: X contains a join, not a chain -> no fire.
	j, err := NewJoinNode(factScan(fx), NewScanNode(fx.dim, []int{0, 1}), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregateNode(j, []int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &Optimizer{Cat: fx.cat, DisablePatchRewrites: true}
	out, err := o.Optimize(agg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(Explain(out), "PatchedScan") {
		t.Errorf("rewrite fired under DisablePatchRewrites:\n%s", Explain(out))
	}
}

func TestOptimizerDisabled(t *testing.T) {
	fx := newFixture(t)
	agg, err := NewAggregateNode(factScan(fx), []int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &Optimizer{Cat: fx.cat, DisablePatchRewrites: true}
	out, err := o.Optimize(agg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(Explain(out), "PatchedScan") {
		t.Error("disabled optimizer still rewrote")
	}
}

func TestBuildAndRunRewrittenPlans(t *testing.T) {
	fx := newFixture(t)
	// Distinct on v via index must equal naive distinct.
	agg, err := NewAggregateNode(factScan(fx), []int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Build(agg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	naiveRows, err := exec.Collect(naive)
	if err != nil {
		t.Fatal(err)
	}
	agg2, err := NewAggregateNode(factScan(fx), []int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := optimize(t, fx, agg2)
	op, err := Build(rewritten, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(naiveRows) {
		t.Errorf("distinct cardinality %d vs %d", len(rows), len(naiveRows))
	}
}

func TestExtractBoundsAndRanges(t *testing.T) {
	fx := newFixture(t)
	schema := factScan(fx).Schema()
	col := expr.NewColRef(0, vector.Int64, "k")
	lit := expr.NewLiteral(vector.IntValue(5))
	gt, _ := expr.NewCmp(expr.GT, col, lit)
	lt, _ := expr.NewCmp(expr.LT, col, expr.NewLiteral(vector.IntValue(100)))
	both, _ := expr.NewBool(expr.And, gt, lt)
	bounds := extractBounds(both, schema)
	if len(bounds) != 1 {
		t.Fatalf("bounds = %v", bounds)
	}
	b := bounds[0]
	if b.lo.I64 != 5 || b.hi.I64 != 100 {
		t.Errorf("bounds = %+v", b)
	}
	// Mirrored literal form: 5 < k.
	mirror, _ := expr.NewCmp(expr.LT, lit, col)
	bounds = extractBounds(mirror, schema)
	if bounds[0].lo.I64 != 5 {
		t.Errorf("mirrored bounds = %+v", bounds[0])
	}
	// OR contributes nothing.
	or, _ := expr.NewBool(expr.Or, gt, lt)
	if extractBounds(or, schema) != nil {
		t.Error("OR must not produce bounds")
	}
	// EQ pins both sides.
	eq, _ := expr.NewCmp(expr.EQ, col, lit)
	bounds = extractBounds(eq, schema)
	if bounds[0].lo.I64 != 5 || bounds[0].hi.I64 != 5 {
		t.Errorf("eq bounds = %+v", bounds[0])
	}
}

func TestIntersectRanges(t *testing.T) {
	a := []storage.ScanRange{{Start: 0, End: 10}, {Start: 20, End: 30}}
	b := []storage.ScanRange{{Start: 5, End: 25}}
	got := intersectRanges(a, b)
	want := []storage.ScanRange{{Start: 5, End: 10}, {Start: 20, End: 25}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("intersection = %v", got)
	}
	if out := intersectRanges(a, nil); out != nil {
		t.Errorf("intersection with empty = %v", out)
	}
}

func TestBuildPartitionRestrictedScan(t *testing.T) {
	fx := newFixture(t)
	s := NewScanNode(fx.fact, []int{0})
	s.Part = 1
	op, err := Build(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("partition scan rows = %d, want 5", n)
	}
}

func TestBuildOrderedPatchScanRequiresColumn(t *testing.T) {
	fx := newFixture(t)
	// Ordered exclude scan without the indexed column in the projection.
	ps := NewPatchScanNode(fx.fact, []int{1}, fx.nsc, exec.ExcludePatches, true)
	if _, err := Build(ps, Config{}); err == nil {
		t.Error("ordered patched scan without the key column must fail to build")
	}
}

func TestBuildParallel(t *testing.T) {
	fx := newFixture(t)
	op, err := Build(factScan(fx), Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := exec.Drain(op)
	if err != nil || n != 10 {
		t.Errorf("parallel scan = %d, %v", n, err)
	}
}

// TestBuildSerialIsExchangeFree asserts the Parallelism=1 guarantee: serial
// configs never introduce parallel operators, so their physical plans are
// identical to plans built before parallel execution existed.
func TestBuildSerialIsExchangeFree(t *testing.T) {
	fx := newFixture(t)
	for _, cfg := range []Config{{}, {Parallelism: 1}} {
		op, err := Build(factScan(fx), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var walk func(o exec.Operator)
		walk = func(o exec.Operator) {
			if _, ok := o.(*exec.Exchange); ok {
				t.Fatalf("serial plan contains an Exchange: %s", o.Name())
			}
			if strings.HasPrefix(o.Name(), "ParallelAgg") {
				t.Fatalf("serial plan contains a ParallelAgg: %s", o.Name())
			}
			for _, c := range o.Children() {
				walk(c)
			}
		}
		walk(op)
	}
}

func TestExplainRendering(t *testing.T) {
	fx := newFixture(t)
	s := NewSortNode(factScan(fx), []exec.SortKey{{Col: 0}})
	text := Explain(s)
	if !strings.Contains(text, "Sort [k asc]") || !strings.Contains(text, "Scan fact") {
		t.Errorf("explain:\n%s", text)
	}
}
