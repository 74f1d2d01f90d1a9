package patchindex

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"patchindex/internal/discovery"
	"patchindex/internal/vector"
)

// TestPaperDiscoveryQueryEndToEnd runs the *exact* SQL-level NUC discovery
// query of Section IV through the engine (left outer join of the duplicated
// values back onto the table, NULLs included via the IS NULL disjunct) and
// checks that it returns precisely the tuple identifiers that the library's
// hash-based discovery computes.
func TestPaperDiscoveryQueryEndToEnd(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE tab (tid BIGINT, c BIGINT)")
	vals := []vector.Value{
		vector.IntValue(3), vector.IntValue(1), vector.IntValue(3),
		vector.IntValue(6), vector.IntValue(8), vector.NullValue(vector.Int64),
		vector.IntValue(2), vector.IntValue(9), vector.IntValue(6),
	}
	tid := vector.New(vector.Int64, len(vals))
	c := vector.New(vector.Int64, len(vals))
	for i, v := range vals {
		tid.AppendInt64(int64(i))
		if err := c.AppendValue(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.LoadColumns("tab", 0, []*vector.Vector{tid, c}); err != nil {
		t.Fatal(err)
	}

	// The verbatim query from Section IV of the paper.
	q := discovery.NUCDiscoverySQL("tab", "c")
	res := mustExec(t, e, q)
	got := make([]uint64, 0, len(res.Rows))
	for _, r := range res.Rows {
		got = append(got, uint64(r[0].I64))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })

	// Reference: the library's hash-based discovery over the same column.
	tbl, err := e.Catalog().Table("tab")
	if err != nil {
		t.Fatal(err)
	}
	nuc, err := discovery.DiscoverNUC(tbl.Partition(0).Column(1))
	if err != nil {
		t.Fatal(err)
	}
	want := nuc.Patches
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SQL discovery = %v, hash discovery = %v", got, want)
	}
	// Sanity: duplicates of 3 and 6 plus the NULL row.
	if fmt.Sprint(got) != "[0 2 3 5 8]" {
		t.Errorf("patches = %v, want [0 2 3 5 8]", got)
	}
}

func TestLeftOuterJoinSemantics(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE l (k BIGINT, v VARCHAR)")
	mustExec(t, e, "INSERT INTO l VALUES (1, 'a'), (2, 'b'), (NULL, 'n')")
	mustExec(t, e, "CREATE TABLE r (k BIGINT, w VARCHAR)")
	mustExec(t, e, "INSERT INTO r VALUES (2, 'x'), (2, 'y'), (3, 'z')")

	res := mustExec(t, e, "SELECT l.v, r.w FROM l LEFT OUTER JOIN r ON l.k = r.k ORDER BY v")
	// a -> NULL; b -> x and y; NULL key row n -> NULL.
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "a" || !res.Rows[0][1].Null {
		t.Errorf("unmatched row = %v", res.Rows[0])
	}
	if res.Rows[1][1].Null || res.Rows[2][1].Null {
		t.Errorf("matched rows = %v %v", res.Rows[1], res.Rows[2])
	}
	if res.Rows[3][0].Str != "n" || !res.Rows[3][1].Null {
		t.Errorf("NULL-key row = %v", res.Rows[3])
	}
	// LEFT JOIN (without OUTER) parses identically.
	res2 := mustExec(t, e, "SELECT COUNT(*) FROM l LEFT JOIN r ON l.k = r.k")
	if res2.Rows[0][0].I64 != 4 {
		t.Errorf("LEFT JOIN count = %v", res2.Rows[0][0])
	}
	// Plain inner join drops unmatched and NULL-key rows.
	res3 := mustExec(t, e, "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k")
	if res3.Rows[0][0].I64 != 2 {
		t.Errorf("inner count = %v", res3.Rows[0][0])
	}
}

func TestDerivedTableBasics(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, `SELECT d.dept_id, d.total FROM
		(SELECT dept_id, SUM(salary) AS total FROM emp GROUP BY dept_id) d
		WHERE d.total > 200 ORDER BY dept_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].I64 != 1 || res.Rows[0][1].F64 != 280.0 {
		t.Errorf("row = %v", res.Rows[0])
	}
	// Derived tables require an alias.
	if _, err := e.Exec("SELECT dept_id FROM (SELECT dept_id FROM emp)"); err == nil {
		t.Error("missing derived-table alias must fail")
	}
	// Derived table joined with a base table.
	res = mustExec(t, e, `SELECT dname FROM dept
		JOIN (SELECT dept_id FROM emp GROUP BY dept_id HAVING COUNT(*) > 2) big
		ON dept.id = big.dept_id`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "eng" {
		t.Errorf("join with derived table = %v", res.Rows)
	}
}

// TestOuterJoinNotRewritten: the PatchIndex join rewrite must not fire for
// outer joins (splitting the preserved side would duplicate unmatched rows).
func TestOuterJoinNotRewritten(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE dim (pk BIGINT, lbl VARCHAR) SORTKEY pk")
	mustExec(t, e, "INSERT INTO dim VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	mustExec(t, e, "CREATE TABLE fact (fk BIGINT)")
	mustExec(t, e, "INSERT INTO fact VALUES (1), (1), (2), (9)")
	mustExec(t, e, "CREATE PATCHINDEX ON fact(fk) SORTED THRESHOLD 0.5")

	exp := mustExec(t, e, "EXPLAIN SELECT COUNT(*) FROM dim LEFT OUTER JOIN fact ON dim.pk = fact.fk")
	if msg := exp.Message; strings.Contains(msg, "MergeJoin") {
		t.Errorf("outer join must not be rewritten:\n%s", msg)
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM dim LEFT OUTER JOIN fact ON dim.pk = fact.fk")
	// 1 matches twice, 2 once, 3 unmatched -> 2+1+1 = 4 rows.
	if res.Rows[0][0].I64 != 4 {
		t.Errorf("outer join count = %v", res.Rows[0][0])
	}
}
