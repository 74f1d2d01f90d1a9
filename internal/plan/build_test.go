package plan

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"patchindex/internal/exec"
	"patchindex/internal/expr"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// renderOps renders the operator-name tree of a physical plan, one operator
// per line, indented by depth. Scans show how many rows their ranges cover,
// and the root shows the zone-pruned partition count. The worker bound in
// "dop=N" is replaced by "dop=d": it depends on GOMAXPROCS.
func renderOps(op exec.Operator) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pruned=%d\n", op.Stats().PartitionsPruned)
	var walk func(o exec.Operator, depth int)
	walk = func(o exec.Operator, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(o.Name())
		if sc, ok := o.(*exec.Scan); ok {
			var rows uint64
			for _, r := range sc.Ranges() {
				rows += r.End - r.Start
			}
			fmt.Fprintf(&sb, " rows=%d", rows)
		}
		sb.WriteByte('\n')
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return dopRe.ReplaceAllString(sb.String(), "dop=d")
}

var dopRe = regexp.MustCompile(`dop=\d+`)

// TestBuildPlanShapes pins the physical plan Build produces for a fixed
// matrix of logical plans at Parallelism 0, 1 and 4. Serial (0 and 1) plans
// must be identical; the parallel plan is pinned separately.
func TestBuildPlanShapes(t *testing.T) {
	fx := newFixture(t)
	// srt(k BIGINT): 3 partitions with a declared sort key.
	srt, err := storage.NewTable("srt", storage.NewSchema(storage.Column{Name: "k", Typ: vector.Int64}), 3)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := srt.AppendColumns(p, []*vector.Vector{vector.NewFromInt64([]int64{int64(p), int64(p + 10)})}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srt.SetSortKey("k"); err != nil {
		t.Fatal(err)
	}

	must := func(n Node, err error) Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cmp := func(op expr.CmpOp, col int, name string, v int64) expr.Expr {
		t.Helper()
		e, err := expr.NewCmp(op, expr.NewColRef(col, vector.Int64, name), expr.NewLiteral(vector.IntValue(v)))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	partScan := func(part int) Node {
		s := factScan(fx)
		s.Part = part
		return s
	}
	patchScan := func(mode exec.SelectMode, ordered bool) Node {
		return NewPatchScanNode(fx.fact, []int{0, 1}, fx.nsc, mode, ordered)
	}
	partPatchScan := func(part int) Node {
		ps := NewPatchScanNode(fx.fact, []int{0, 1}, fx.nsc, exec.ExcludePatches, true)
		ps.Part = part
		return ps
	}
	// v > 100 lies above every partition's zone map, v >= 14 above only
	// partition 0's (v in 10..13), and v > 13 above none: a strict bound
	// prunes as if it were inclusive.
	allPruned := func(in Node) Node { return NewFilterNode(in, cmp(expr.GT, 1, "v", 100)) }
	onePruned := func(in Node) Node { return NewFilterNode(in, cmp(expr.GE, 1, "v", 14)) }
	nonePruned := func(in Node) Node { return NewFilterNode(in, cmp(expr.GT, 1, "v", 13)) }
	projectOverFilter := func() Node {
		return must(NewProjectNode(nonePruned(factScan(fx)),
			[]expr.Expr{expr.NewColRef(0, vector.Int64, "k")}, []string{"k"}))
	}
	distinctRewrite := func() Node {
		return optimize(t, fx, must(NewAggregateNode(factScan(fx), []int{1}, nil, nil)))
	}
	countDistinctRewrite := func() Node {
		return optimize(t, fx, must(NewAggregateNode(factScan(fx), nil,
			[]exec.AggSpec{{Func: exec.CountDistinct, Col: 1}}, []string{"n"})))
	}
	sortRewrite := func() Node {
		return optimize(t, fx, NewSortNode(factScan(fx), []exec.SortKey{{Col: 0}}))
	}
	plainUnion := func() Node {
		return must(NewUnionNode(false, nil, nonePruned(factScan(fx)), partScan(0)))
	}

	leaves := []struct {
		name string
		mk   func() Node
	}{
		{"scan", func() Node { return factScan(fx) }},
		{"sorted scan", func() Node { return NewScanNode(srt, []int{0}) }},
		{"single-partition sorted scan", func() Node { return NewScanNode(fx.dim, []int{0, 1}) }},
		{"part scan", func() Node { return partScan(1) }},
		{"exclude scan", func() Node { return patchScan(exec.ExcludePatches, false) }},
		{"use scan", func() Node { return patchScan(exec.UsePatches, false) }},
		{"ordered exclude scan", func() Node { return patchScan(exec.ExcludePatches, true) }},
		{"part patch scan", func() Node { return partPatchScan(0) }},
		{"filter all pruned", func() Node { return allPruned(factScan(fx)) }},
		{"filter one pruned", func() Node { return onePruned(factScan(fx)) }},
		{"filter none pruned", func() Node { return nonePruned(factScan(fx)) }},
		{"filter one pruned patch scan", func() Node { return onePruned(patchScan(exec.ExcludePatches, false)) }},
		{"filter all pruned patch scan", func() Node { return allPruned(patchScan(exec.UsePatches, false)) }},
		{"filter all pruned part scan", func() Node { return allPruned(partScan(1)) }},
		{"filter all pruned sorted scan", func() Node {
			return NewFilterNode(NewScanNode(srt, []int{0}), cmp(expr.GT, 0, "k", 100))
		}},
		{"project over filter", projectOverFilter},
		{"union", plainUnion},
		{"distinct rewrite", distinctRewrite},
		{"count distinct rewrite", countDistinctRewrite},
		{"sort rewrite", sortRewrite},
	}
	type shape struct{ serial, parallel string }
	got := map[string]shape{}
	var names []string
	build := func(name string, mk func() Node) {
		var s shape
		for _, par := range []int{0, 1, 4} {
			op, err := Build(mk(), Config{Parallelism: par})
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", name, par, err)
			}
			r := renderOps(op)
			switch par {
			case 0:
				s.serial = r
			case 1:
				if r != s.serial {
					t.Errorf("%s: parallelism 1 differs from 0:\n%s\nvs\n%s", name, r, s.serial)
				}
			default:
				s.parallel = r
			}
		}
		got[name] = s
		names = append(names, name)
	}
	for _, l := range leaves {
		build(l.name, l.mk)
		l := l
		build("agg over "+l.name, func() Node {
			in := l.mk()
			return must(NewAggregateNode(in, []int{0}, []exec.AggSpec{{Func: exec.CountStar, Col: -1}}, []string{"n"}))
		})
	}

	for _, name := range names {
		w, ok := wantPlanShapes[name]
		if !ok {
			t.Errorf("no expected shape for %q:\nserial:\n%sparallel:\n%s", name, got[name].serial, got[name].parallel)
			continue
		}
		w.serial = strings.TrimPrefix(w.serial, "\n")
		if w.parallel = strings.TrimPrefix(w.parallel, "\n"); w.parallel == "" {
			w.parallel = w.serial
		}
		if got[name].serial != w.serial {
			t.Errorf("%s serial:\n%swant:\n%s", name, got[name].serial, w.serial)
		}
		if got[name].parallel != w.parallel {
			t.Errorf("%s parallelism 4:\n%swant:\n%s", name, got[name].parallel, w.parallel)
		}
	}
}

// wantPlanShapes maps each case of TestBuildPlanShapes to its serial plan
// and, when it differs, its parallelism-4 plan.
var wantPlanShapes = map[string]struct{ serial, parallel string }{
	"scan": {serial: `
pruned=0
Union(2)
  Scan(fact.p0) rows=5
  Scan(fact.p1) rows=5
`, parallel: `
pruned=0
Exchange(2, dop=d)
  Scan(fact.p0) rows=5
  Scan(fact.p1) rows=5
`},
	"agg over scan": {serial: `
pruned=0
HashAgg
  Union(2)
    Scan(fact.p0) rows=5
    Scan(fact.p1) rows=5
`, parallel: `
pruned=0
ParallelAgg(2, dop=d)
  Scan(fact.p0) rows=5
  Scan(fact.p1) rows=5
`},
	"sorted scan": {serial: `
pruned=0
MergeUnion(3)
  Scan(srt.p0) rows=2
  Scan(srt.p1) rows=2
  Scan(srt.p2) rows=2
`},
	"agg over sorted scan": {serial: `
pruned=0
HashAgg
  MergeUnion(3)
    Scan(srt.p0) rows=2
    Scan(srt.p1) rows=2
    Scan(srt.p2) rows=2
`},
	"single-partition sorted scan": {serial: `
pruned=0
Scan(dim.p0) rows=10
`},
	"agg over single-partition sorted scan": {serial: `
pruned=0
HashAgg
  Scan(dim.p0) rows=10
`},
	"part scan": {serial: `
pruned=0
Scan(fact.p1) rows=5
`},
	"agg over part scan": {serial: `
pruned=0
HashAgg
  Scan(fact.p1) rows=5
`},
	"exclude scan": {serial: `
pruned=0
Union(2)
  PatchSelect(exclude_patches)
    Scan(fact.p0) rows=5
  PatchSelect(exclude_patches)
    Scan(fact.p1) rows=5
`, parallel: `
pruned=0
Exchange(2, dop=d)
  PatchSelect(exclude_patches)
    Scan(fact.p0) rows=5
  PatchSelect(exclude_patches)
    Scan(fact.p1) rows=5
`},
	"agg over exclude scan": {serial: `
pruned=0
HashAgg
  Union(2)
    PatchSelect(exclude_patches)
      Scan(fact.p0) rows=5
    PatchSelect(exclude_patches)
      Scan(fact.p1) rows=5
`, parallel: `
pruned=0
ParallelAgg(2, dop=d)
  PatchSelect(exclude_patches)
    Scan(fact.p0) rows=5
  PatchSelect(exclude_patches)
    Scan(fact.p1) rows=5
`},
	"use scan": {serial: `
pruned=0
Union(2)
  PatchSelect(use_patches)
    Scan(fact.p0) rows=5
  PatchSelect(use_patches)
    Scan(fact.p1) rows=5
`, parallel: `
pruned=0
Exchange(2, dop=d)
  PatchSelect(use_patches)
    Scan(fact.p0) rows=5
  PatchSelect(use_patches)
    Scan(fact.p1) rows=5
`},
	"agg over use scan": {serial: `
pruned=0
HashAgg
  Union(2)
    PatchSelect(use_patches)
      Scan(fact.p0) rows=5
    PatchSelect(use_patches)
      Scan(fact.p1) rows=5
`, parallel: `
pruned=0
ParallelAgg(2, dop=d)
  PatchSelect(use_patches)
    Scan(fact.p0) rows=5
  PatchSelect(use_patches)
    Scan(fact.p1) rows=5
`},
	"ordered exclude scan": {serial: `
pruned=0
MergeUnion(2)
  PatchSelect(exclude_patches)
    Scan(fact.p0) rows=5
  PatchSelect(exclude_patches)
    Scan(fact.p1) rows=5
`},
	"agg over ordered exclude scan": {serial: `
pruned=0
HashAgg
  MergeUnion(2)
    PatchSelect(exclude_patches)
      Scan(fact.p0) rows=5
    PatchSelect(exclude_patches)
      Scan(fact.p1) rows=5
`},
	"part patch scan": {serial: `
pruned=0
PatchSelect(exclude_patches)
  Scan(fact.p0) rows=5
`},
	"agg over part patch scan": {serial: `
pruned=0
HashAgg
  PatchSelect(exclude_patches)
    Scan(fact.p0) rows=5
`},
	"filter all pruned": {serial: `
pruned=2
Filter((v > 100))
  Scan(fact.p0) rows=0
`},
	"agg over filter all pruned": {serial: `
pruned=2
HashAgg
  Filter((v > 100))
    Scan(fact.p0) rows=0
`},
	"filter one pruned": {serial: `
pruned=1
Filter((v >= 14))
  Scan(fact.p1) rows=5
`},
	"agg over filter one pruned": {serial: `
pruned=1
HashAgg
  Filter((v >= 14))
    Scan(fact.p1) rows=5
`},
	"filter none pruned": {serial: `
pruned=0
Filter((v > 13))
  Union(2)
    Scan(fact.p0) rows=5
    Scan(fact.p1) rows=5
`, parallel: `
pruned=0
Exchange(2, dop=d)
  Filter((v > 13))
    Scan(fact.p0) rows=5
  Filter((v > 13))
    Scan(fact.p1) rows=5
`},
	"agg over filter none pruned": {serial: `
pruned=0
HashAgg
  Filter((v > 13))
    Union(2)
      Scan(fact.p0) rows=5
      Scan(fact.p1) rows=5
`, parallel: `
pruned=0
ParallelAgg(2, dop=d)
  Filter((v > 13))
    Scan(fact.p0) rows=5
  Filter((v > 13))
    Scan(fact.p1) rows=5
`},
	"filter one pruned patch scan": {serial: `
pruned=1
Filter((v >= 14))
  PatchSelect(exclude_patches)
    Scan(fact.p1) rows=5
`},
	"agg over filter one pruned patch scan": {serial: `
pruned=1
HashAgg
  Filter((v >= 14))
    PatchSelect(exclude_patches)
      Scan(fact.p1) rows=5
`},
	"filter all pruned patch scan": {serial: `
pruned=2
Filter((v > 100))
  PatchSelect(use_patches)
    Scan(fact.p0) rows=0
`},
	"agg over filter all pruned patch scan": {serial: `
pruned=2
HashAgg
  Filter((v > 100))
    PatchSelect(use_patches)
      Scan(fact.p0) rows=0
`},
	"filter all pruned part scan": {serial: `
pruned=1
Filter((v > 100))
  Scan(fact.p1) rows=0
`},
	"agg over filter all pruned part scan": {serial: `
pruned=1
HashAgg
  Filter((v > 100))
    Scan(fact.p1) rows=0
`},
	"filter all pruned sorted scan": {serial: `
pruned=3
Filter((k > 100))
  Scan(srt.p0) rows=0
`},
	"agg over filter all pruned sorted scan": {serial: `
pruned=3
HashAgg
  Filter((k > 100))
    Scan(srt.p0) rows=0
`},
	"project over filter": {serial: `
pruned=0
Project
  Filter((v > 13))
    Union(2)
      Scan(fact.p0) rows=5
      Scan(fact.p1) rows=5
`, parallel: `
pruned=0
Exchange(2, dop=d)
  Project
    Filter((v > 13))
      Scan(fact.p0) rows=5
  Project
    Filter((v > 13))
      Scan(fact.p1) rows=5
`},
	"agg over project over filter": {serial: `
pruned=0
HashAgg
  Project
    Filter((v > 13))
      Union(2)
        Scan(fact.p0) rows=5
        Scan(fact.p1) rows=5
`, parallel: `
pruned=0
ParallelAgg(2, dop=d)
  Project
    Filter((v > 13))
      Scan(fact.p0) rows=5
  Project
    Filter((v > 13))
      Scan(fact.p1) rows=5
`},
	"union": {serial: `
pruned=0
Union(2)
  Filter((v > 13))
    Union(2)
      Scan(fact.p0) rows=5
      Scan(fact.p1) rows=5
  Scan(fact.p0) rows=5
`, parallel: `
pruned=0
Exchange(3, dop=d)
  Filter((v > 13))
    Scan(fact.p0) rows=5
  Filter((v > 13))
    Scan(fact.p1) rows=5
  Scan(fact.p0) rows=5
`},
	"agg over union": {serial: `
pruned=0
HashAgg
  Union(2)
    Filter((v > 13))
      Union(2)
        Scan(fact.p0) rows=5
        Scan(fact.p1) rows=5
    Scan(fact.p0) rows=5
`, parallel: `
pruned=0
ParallelAgg(3, dop=d)
  Filter((v > 13))
    Scan(fact.p0) rows=5
  Filter((v > 13))
    Scan(fact.p1) rows=5
  Scan(fact.p0) rows=5
`},
	"distinct rewrite": {serial: `
pruned=0
Union(2)
  Project
    Union(2)
      PatchSelect(exclude_patches)
        Scan(fact.p0) rows=5
      PatchSelect(exclude_patches)
        Scan(fact.p1) rows=5
  Distinct
    Project
      Union(2)
        PatchSelect(use_patches)
          Scan(fact.p0) rows=5
        PatchSelect(use_patches)
          Scan(fact.p1) rows=5
`, parallel: `
pruned=0
Exchange(3, dop=d)
  Project
    PatchSelect(exclude_patches)
      Scan(fact.p0) rows=5
  Project
    PatchSelect(exclude_patches)
      Scan(fact.p1) rows=5
  ParallelAgg(2, dop=d)
    Project
      PatchSelect(use_patches)
        Scan(fact.p0) rows=5
    Project
      PatchSelect(use_patches)
        Scan(fact.p1) rows=5
`},
	"agg over distinct rewrite": {serial: `
pruned=0
HashAgg
  Union(2)
    Project
      Union(2)
        PatchSelect(exclude_patches)
          Scan(fact.p0) rows=5
        PatchSelect(exclude_patches)
          Scan(fact.p1) rows=5
    Distinct
      Project
        Union(2)
          PatchSelect(use_patches)
            Scan(fact.p0) rows=5
          PatchSelect(use_patches)
            Scan(fact.p1) rows=5
`, parallel: `
pruned=0
ParallelAgg(3, dop=d)
  Project
    PatchSelect(exclude_patches)
      Scan(fact.p0) rows=5
  Project
    PatchSelect(exclude_patches)
      Scan(fact.p1) rows=5
  ParallelAgg(2, dop=d)
    Project
      PatchSelect(use_patches)
        Scan(fact.p0) rows=5
    Project
      PatchSelect(use_patches)
        Scan(fact.p1) rows=5
`},
	"count distinct rewrite": {serial: `
pruned=0
HashAgg
  Union(2)
    Project
      Union(2)
        PatchSelect(exclude_patches)
          Scan(fact.p0) rows=5
        PatchSelect(exclude_patches)
          Scan(fact.p1) rows=5
    Distinct
      Project
        Union(2)
          PatchSelect(use_patches)
            Scan(fact.p0) rows=5
          PatchSelect(use_patches)
            Scan(fact.p1) rows=5
`, parallel: `
pruned=0
ParallelAgg(3, dop=d)
  Project
    PatchSelect(exclude_patches)
      Scan(fact.p0) rows=5
  Project
    PatchSelect(exclude_patches)
      Scan(fact.p1) rows=5
  ParallelAgg(2, dop=d)
    Project
      PatchSelect(use_patches)
        Scan(fact.p0) rows=5
    Project
      PatchSelect(use_patches)
        Scan(fact.p1) rows=5
`},
	"agg over count distinct rewrite": {serial: `
pruned=0
HashAgg
  HashAgg
    Union(2)
      Project
        Union(2)
          PatchSelect(exclude_patches)
            Scan(fact.p0) rows=5
          PatchSelect(exclude_patches)
            Scan(fact.p1) rows=5
      Distinct
        Project
          Union(2)
            PatchSelect(use_patches)
              Scan(fact.p0) rows=5
            PatchSelect(use_patches)
              Scan(fact.p1) rows=5
`, parallel: `
pruned=0
HashAgg
  ParallelAgg(3, dop=d)
    Project
      PatchSelect(exclude_patches)
        Scan(fact.p0) rows=5
    Project
      PatchSelect(exclude_patches)
        Scan(fact.p1) rows=5
    ParallelAgg(2, dop=d)
      Project
        PatchSelect(use_patches)
          Scan(fact.p0) rows=5
      Project
        PatchSelect(use_patches)
          Scan(fact.p1) rows=5
`},
	"sort rewrite": {serial: `
pruned=0
MergeUnion(2)
  MergeUnion(2)
    PatchSelect(exclude_patches)
      Scan(fact.p0) rows=5
    PatchSelect(exclude_patches)
      Scan(fact.p1) rows=5
  Sort
    Union(2)
      PatchSelect(use_patches)
        Scan(fact.p0) rows=5
      PatchSelect(use_patches)
        Scan(fact.p1) rows=5
`, parallel: `
pruned=0
MergeUnion(2)
  MergeUnion(2)
    PatchSelect(exclude_patches)
      Scan(fact.p0) rows=5
    PatchSelect(exclude_patches)
      Scan(fact.p1) rows=5
  Sort
    Exchange(2, dop=d)
      PatchSelect(use_patches)
        Scan(fact.p0) rows=5
      PatchSelect(use_patches)
        Scan(fact.p1) rows=5
`},
	"agg over sort rewrite": {serial: `
pruned=0
HashAgg
  MergeUnion(2)
    MergeUnion(2)
      PatchSelect(exclude_patches)
        Scan(fact.p0) rows=5
      PatchSelect(exclude_patches)
        Scan(fact.p1) rows=5
    Sort
      Union(2)
        PatchSelect(use_patches)
          Scan(fact.p0) rows=5
        PatchSelect(use_patches)
          Scan(fact.p1) rows=5
`, parallel: `
pruned=0
HashAgg
  MergeUnion(2)
    MergeUnion(2)
      PatchSelect(exclude_patches)
        Scan(fact.p0) rows=5
      PatchSelect(exclude_patches)
        Scan(fact.p1) rows=5
    Sort
      Exchange(2, dop=d)
        PatchSelect(use_patches)
          Scan(fact.p0) rows=5
        PatchSelect(use_patches)
          Scan(fact.p1) rows=5
`},
}
