package plan

import (
	"errors"
	"strings"
	"testing"

	"patchindex/internal/exec"
	"patchindex/internal/expr"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

func TestNodeLabels(t *testing.T) {
	fx := newFixture(t)
	scan := factScan(fx)
	pred, err := expr.NewCmp(expr.GT, expr.NewColRef(0, vector.Int64, "k"), expr.NewLiteral(vector.IntValue(1)))
	if err != nil {
		t.Fatal(err)
	}
	filter := NewFilterNode(scan, pred)
	proj, err := NewProjectNode(filter, []expr.Expr{expr.NewColRef(0, vector.Int64, "k")}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregateNode(proj, []int{0}, []exec.AggSpec{{Func: exec.CountStar, Col: -1}}, []string{"n"})
	if err != nil {
		t.Fatal(err)
	}
	limit := NewLimitNode(agg, 3)
	cases := []struct {
		node Node
		want string
	}{
		{scan, "Scan fact"},
		{filter, "Filter"},
		{proj, "Project [k]"},
		{agg, "Aggregate"},
		{limit, "Limit 3"},
	}
	for _, c := range cases {
		if !strings.Contains(c.node.Label(), c.want) {
			t.Errorf("label %q missing %q", c.node.Label(), c.want)
		}
	}
	// Patched scans, with and without partition restriction.
	ps := NewPatchScanNode(fx.fact, []int{0, 1}, fx.nsc, exec.ExcludePatches, true)
	if !strings.Contains(ps.Label(), "ordered") {
		t.Errorf("patched scan label: %q", ps.Label())
	}
	ps.Part = 1
	if !strings.Contains(ps.Label(), "p1") {
		t.Errorf("partition-restricted label: %q", ps.Label())
	}
	// Distinct aggregation label.
	dist, err := NewAggregateNode(factScan(fx), []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Label() != "Distinct" {
		t.Errorf("distinct label: %q", dist.Label())
	}
	// Unions.
	u, err := NewUnionNode(false, nil, factScan(fx), factScan(fx))
	if err != nil {
		t.Fatal(err)
	}
	if u.Label() != "Union" {
		t.Errorf("union label: %q", u.Label())
	}
	mu, err := NewUnionNode(true, []exec.SortKey{{Col: 0}}, factScan(fx))
	if err != nil {
		t.Fatal(err)
	}
	if mu.Label() != "MergeUnion" {
		t.Errorf("merge union label: %q", mu.Label())
	}
	// Sort label with direction.
	s := NewSortNode(factScan(fx), []exec.SortKey{{Col: 1, Desc: true}})
	if !strings.Contains(s.Label(), "v desc") {
		t.Errorf("sort label: %q", s.Label())
	}
}

func TestUnionNodeValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := NewUnionNode(false, nil); err == nil {
		t.Error("empty union must fail")
	}
	narrow := NewScanNode(fx.fact, []int{0})
	wide := factScan(fx)
	if _, err := NewUnionNode(false, nil, narrow, wide); err == nil {
		t.Error("column count mismatch must fail")
	}
	dimScan := NewScanNode(fx.dim, []int{0, 1}) // (int, string) vs (int, int)
	if _, err := NewUnionNode(false, nil, wide, dimScan); err == nil {
		t.Error("type mismatch must fail")
	}
}

func TestJoinNodeValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := NewJoinNode(factScan(fx), factScan(fx), 9, 0); err == nil {
		t.Error("bad left key must fail")
	}
	if _, err := NewJoinNode(factScan(fx), factScan(fx), 0, 9); err == nil {
		t.Error("bad right key must fail")
	}
	// Keys of different types are rejected with a typed error in either
	// orientation; BIGINT and DATE join as one type.
	dimScan := NewScanNode(fx.dim, []int{0, 1}) // (pk BIGINT, label VARCHAR)
	for _, tc := range []struct {
		name string
		l, r Node
		lk   int
	}{{"BIGINT = VARCHAR", factScan(fx), dimScan, 0}, {"VARCHAR = BIGINT", dimScan, factScan(fx), 1}} {
		rk := 1 - tc.lk
		_, err := NewJoinNode(tc.l, tc.r, tc.lk, rk)
		var kerr *JoinKeyTypeError
		if !errors.As(err, &kerr) {
			t.Errorf("%s: err = %v, want *JoinKeyTypeError", tc.name, err)
		}
	}
	days, err := storage.NewTable("days", storage.NewSchema(storage.Column{Name: "d", Typ: vector.Date}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJoinNode(NewScanNode(days, []int{0}), factScan(fx), 0, 0); err != nil {
		t.Errorf("DATE = BIGINT must join: %v", err)
	}
}

func TestAggregateNodeValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := NewAggregateNode(factScan(fx), []int{9}, nil, nil); err == nil {
		t.Error("bad group column must fail")
	}
	if _, err := NewAggregateNode(factScan(fx), nil, []exec.AggSpec{{Func: exec.CountStar, Col: -1}}, nil); err == nil {
		t.Error("agg/name length mismatch must fail")
	}
}

func TestProjectNodeValidation(t *testing.T) {
	fx := newFixture(t)
	if _, err := NewProjectNode(factScan(fx), []expr.Expr{expr.NewLiteral(vector.IntValue(1))}, nil); err == nil {
		t.Error("expr/name length mismatch must fail")
	}
}

func TestEstimateRowsUnionAndJoin(t *testing.T) {
	fx := newFixture(t)
	u, err := NewUnionNode(false, nil, factScan(fx), factScan(fx))
	if err != nil {
		t.Fatal(err)
	}
	if got := EstimateRows(u); got != 20 {
		t.Errorf("union estimate = %d", got)
	}
	j, err := NewJoinNode(NewScanNode(fx.dim, []int{0, 1}), factScan(fx), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := EstimateRows(j); got != 10 {
		t.Errorf("join estimate = %d (key/FK heuristic: larger side)", got)
	}
	srt := NewSortNode(factScan(fx), []exec.SortKey{{Col: 0}})
	if got := EstimateRows(srt); got != 10 {
		t.Errorf("sort estimate = %d", got)
	}
}
