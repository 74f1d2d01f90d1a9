package patchindex

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"patchindex/internal/plan"
	"patchindex/internal/vector"
)

// setupEmp loads a small employees/departments schema through plain SQL.
func setupEmp(t *testing.T) *Engine {
	t.Helper()
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE dept (id BIGINT, dname VARCHAR) SORTKEY id")
	mustExec(t, e, "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'hr')")
	mustExec(t, e, "CREATE TABLE emp (id BIGINT, name VARCHAR, dept_id BIGINT, salary DOUBLE, hired DATE)")
	mustExec(t, e, `INSERT INTO emp VALUES
		(1, 'ann',  1, 100.0, DATE '2020-01-05'),
		(2, 'bob',  1,  80.0, DATE '2020-03-01'),
		(3, 'cid',  2, 120.0, DATE '2021-06-15'),
		(4, 'dee',  2,  90.5, DATE '2019-11-30'),
		(5, NULL,   3,  70.0, NULL),
		(6, 'eve',  1, 100.0, DATE '2022-02-02')`)
	return e
}

func TestSQLWhereAndProjection(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, "SELECT name, salary * 2 AS dbl FROM emp WHERE salary >= 90 AND dept_id <> 3 ORDER BY name")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[1] != "dbl" || res.Rows[0][1].F64 != 200.0 {
		t.Errorf("projection = %v", res.Rows)
	}
}

func TestSQLJoin(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, `SELECT dname, COUNT(*) AS n FROM dept JOIN emp ON dept.id = emp.dept_id
		GROUP BY dname ORDER BY dname`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "eng" || res.Rows[0][1].I64 != 3 {
		t.Errorf("eng group = %v", res.Rows[0])
	}
}

func TestSQLThreeWayJoin(t *testing.T) {
	e := setupEmp(t)
	mustExec(t, e, "CREATE TABLE loc (dept_id BIGINT, city VARCHAR)")
	mustExec(t, e, "INSERT INTO loc VALUES (1, 'berlin'), (2, 'munich')")
	res := mustExec(t, e, `SELECT emp.name, city FROM emp
		JOIN dept ON emp.dept_id = dept.id
		JOIN loc ON loc.dept_id = dept.id
		WHERE city = 'berlin' ORDER BY name`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLNullSemantics(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, "SELECT COUNT(*) FROM emp WHERE name IS NULL")
	if res.Rows[0][0].I64 != 1 {
		t.Errorf("IS NULL count = %v", res.Rows[0][0])
	}
	res = mustExec(t, e, "SELECT COUNT(name) FROM emp")
	if res.Rows[0][0].I64 != 5 {
		t.Errorf("COUNT(col) must skip NULL: %v", res.Rows[0][0])
	}
	// Comparison with NULL is never true.
	res = mustExec(t, e, "SELECT COUNT(*) FROM emp WHERE name = 'zzz' OR name <> 'zzz'")
	if res.Rows[0][0].I64 != 5 {
		t.Errorf("three-valued logic broken: %v", res.Rows[0][0])
	}
}

func TestSQLDateLiterals(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, "SELECT name FROM emp WHERE hired >= DATE '2020-01-01' AND hired < DATE '2021-01-01' ORDER BY name")
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "ann" || res.Rows[1][0].Str != "bob" {
		t.Errorf("date filter = %v", res.Rows)
	}
}

func TestSQLAggregatesMatrix(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, "SELECT COUNT(*), COUNT(name), COUNT(DISTINCT dept_id), SUM(salary), MIN(salary), MAX(salary) FROM emp")
	r := res.Rows[0]
	if r[0].I64 != 6 || r[1].I64 != 5 || r[2].I64 != 3 {
		t.Errorf("counts = %v", r)
	}
	if r[3].F64 != 560.5 || r[4].F64 != 70.0 || r[5].F64 != 120.0 {
		t.Errorf("sum/min/max = %v", r)
	}
}

func TestSQLHaving(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, "SELECT dept_id FROM emp GROUP BY dept_id HAVING SUM(salary) > 200 ORDER BY dept_id")
	if len(res.Rows) != 2 || res.Rows[0][0].I64 != 1 || res.Rows[1][0].I64 != 2 {
		t.Errorf("having = %v", res.Rows)
	}
}

func TestSQLDistinctMultiColumn(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, "SELECT DISTINCT dept_id, salary FROM emp")
	if len(res.Rows) != 5 { // (1,100) occurs twice (ann, eve)
		t.Errorf("distinct pairs = %v", res.Rows)
	}
}

func TestSQLLimitAndOrder(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, "SELECT id FROM emp ORDER BY salary DESC, id ASC LIMIT 3")
	got := []int64{res.Rows[0][0].I64, res.Rows[1][0].I64, res.Rows[2][0].I64}
	if got[0] != 3 || got[1] != 1 || got[2] != 6 {
		t.Errorf("top-3 by salary = %v", got)
	}
}

func TestSQLInsertCoercion(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE c (f DOUBLE, d DATE)")
	mustExec(t, e, "INSERT INTO c VALUES (1, 18000)") // int → double, int → date
	res := mustExec(t, e, "SELECT f, d FROM c")
	if res.Rows[0][0].F64 != 1.0 || res.Rows[0][1].I64 != 18000 {
		t.Errorf("coercion = %v", res.Rows[0])
	}
	if _, err := e.Exec("INSERT INTO c VALUES ('no', 1)"); err == nil {
		t.Error("string into double must fail")
	}
	if _, err := e.Exec("INSERT INTO c VALUES (1)"); err == nil {
		t.Error("wrong arity must fail")
	}
}

func TestSQLShowStatements(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, "SHOW TABLES")
	if len(res.Rows) != 2 {
		t.Errorf("tables = %v", res.Rows)
	}
	mustExec(t, e, "CREATE PATCHINDEX ON emp(id) UNIQUE THRESHOLD 0.5")
	res = mustExec(t, e, "SHOW PATCHINDEXES")
	if len(res.Rows) != 1 || res.Rows[0][1].Str != "id" {
		t.Errorf("patchindexes = %v", res.Rows)
	}
	if s := res.String(); !strings.Contains(s, "NEARLY UNIQUE") {
		t.Errorf("rendering:\n%s", s)
	}
}

func TestSQLDropStatements(t *testing.T) {
	e := setupEmp(t)
	mustExec(t, e, "CREATE PATCHINDEX ON emp(id) UNIQUE")
	mustExec(t, e, "DROP PATCHINDEX ON emp(id)")
	if _, err := e.Exec("DROP PATCHINDEX ON emp(id)"); err == nil {
		t.Error("double index drop must fail")
	}
	mustExec(t, e, "DROP TABLE emp")
	if _, err := e.Exec("SELECT * FROM emp"); err == nil {
		t.Error("dropped table must be gone")
	}
}

func TestSQLErrors(t *testing.T) {
	e := setupEmp(t)
	for _, q := range []string{
		"SELECT zzz FROM emp",
		"SELECT name FROM nosuch",
		"SELECT name FROM emp WHERE salary",             // non-boolean where
		"SELECT name, COUNT(*) FROM emp",                // missing group by
		"SELECT salary FROM emp GROUP BY dept_id",       // not grouped
		"CREATE TABLE emp (x BIGINT)",                   // duplicate table
		"CREATE PATCHINDEX ON emp(zzz) UNIQUE",          // unknown column
		"SELECT COUNT(*) FROM emp WHERE salary / 0 > 1", // div by zero at runtime
	} {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
	if _, err := e.Query("INSERT INTO dept VALUES (9, 'x')"); err == nil {
		t.Error("Query on a non-SELECT must fail")
	}
	if _, err := e.DrainWith("INSERT INTO dept VALUES (9, 'x')", ExecOptions{}); err == nil {
		t.Error("DrainWith on a non-SELECT must fail")
	}
}

func TestSQLThresholdRejection(t *testing.T) {
	e := setupEmp(t)
	// salary has duplicates (100.0 twice): threshold 0 must reject.
	if _, err := e.Exec("CREATE PATCHINDEX ON emp(salary) UNIQUE THRESHOLD 0.0"); err == nil {
		t.Error("threshold 0 on duplicated column must fail")
	}
	// FORCE overrides.
	mustExec(t, e, "CREATE PATCHINDEX ON emp(salary) UNIQUE THRESHOLD 0.0 FORCE")
}

func TestResultString(t *testing.T) {
	e := setupEmp(t)
	res := mustExec(t, e, "SELECT id, name FROM emp WHERE id <= 2 ORDER BY id")
	s := res.String()
	if !strings.Contains(s, "id") || !strings.Contains(s, "ann") || !strings.Contains(s, "(2 rows)") {
		t.Errorf("rendering:\n%s", s)
	}
	msg := mustExec(t, e, "CREATE TABLE zz (a BIGINT)")
	if !strings.Contains(msg.String(), "created") {
		t.Errorf("message rendering: %q", msg.String())
	}
}

func TestExplainBaselineVsRewritten(t *testing.T) {
	e := setupEmp(t)
	mustExec(t, e, "CREATE PATCHINDEX ON emp(id) UNIQUE")
	q := "SELECT COUNT(DISTINCT id) FROM emp"
	withPI := mustExec(t, e, "EXPLAIN "+q)
	if !strings.Contains(withPI.Message, "PatchedScan") {
		t.Errorf("rewritten plan:\n%s", withPI.Message)
	}
	base, err := e.ExecWith("EXPLAIN "+q, ExecOptions{DisablePatchRewrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(base.Message, "PatchedScan") {
		t.Errorf("baseline plan must not use patches:\n%s", base.Message)
	}
}

// TestNegativeZeroIsOneKey: -0.0 = 0.0 under SQL =, so every hash site —
// DISTINCT, COUNT(DISTINCT), GROUP BY, a hash join and a NUC PatchIndex
// with its maintenance — must treat them as one key, and the rewritten
// plans must agree with the unrewritten ones.
func TestNegativeZeroIsOneKey(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (f DOUBLE, id BIGINT)")
	mustExec(t, e, "INSERT INTO t VALUES (0.0, 1), (-0.0, 2), (0.0, 3), (1.5, 4)")
	mustExec(t, e, "CREATE TABLE w (g DOUBLE)")
	mustExec(t, e, "INSERT INTO w VALUES (-0.0), (0.0)")
	if r := mustExec(t, e, "SELECT f FROM t WHERE id = 2"); !math.Signbit(r.Rows[0][0].F64) {
		t.Fatalf("the literal -0.0 stored %v, not negative zero", r.Rows[0][0])
	}
	// A zero group may be represented by either zero; render both as 0.
	render := func(rows [][]vector.Value) string {
		for _, r := range rows {
			for i := range r {
				if r[i].Typ == vector.Float64 && r[i].F64 == 0 {
					r[i].F64 = 0
				}
			}
		}
		return fmt.Sprint(rows)
	}
	check := func(when string, opts ExecOptions) {
		t.Helper()
		for _, c := range []struct{ q, want string }{
			{"SELECT DISTINCT f FROM t ORDER BY f", "[[0] [1.5]]"},
			{"SELECT COUNT(DISTINCT f) FROM t", "[[2]]"},
			{"SELECT f, COUNT(*) FROM t GROUP BY f ORDER BY f", "[[0 3] [1.5 1]]"},
			{"SELECT COUNT(*) FROM t JOIN w ON f = g", "[[6]]"},
		} {
			res, err := e.ExecWith(c.q, opts)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, c.q, err)
			}
			if got := render(res.Rows); got != c.want {
				t.Errorf("%s: %s = %s, want %s", when, c.q, got, c.want)
			}
		}
	}
	check("no index", ExecOptions{})
	// Discovery must see the three zeros as one duplicated value.
	mustExec(t, e, "CREATE PATCHINDEX ON t(f) UNIQUE THRESHOLD 1.0 FORCE")
	check("NUC index", ExecOptions{})
	check("NUC index, rewrites off", ExecOptions{DisablePatchRewrites: true})
	if exp := mustExec(t, e, "EXPLAIN SELECT DISTINCT f FROM t"); !strings.Contains(exp.Message, "PatchedScan") {
		t.Fatalf("DISTINCT is not rewritten:\n%s", exp.Message)
	}
	// Maintenance must see a -0.0 appended to a unique 0.0 as a duplicate,
	// and a new 2.5 as unique.
	mustExec(t, e, "CREATE TABLE m (f DOUBLE, id BIGINT)")
	mustExec(t, e, "INSERT INTO m VALUES (0.0, 1), (1.5, 2)")
	mustExec(t, e, "CREATE PATCHINDEX ON m(f) UNIQUE THRESHOLD 1.0 FORCE")
	if err := e.Append("m", 0, []*vector.Vector{
		vector.NewFromFloat64([]float64{math.Copysign(0, -1), 2.5}),
		vector.NewFromInt64([]int64{3, 4}),
	}); err != nil {
		t.Fatal(err)
	}
	for _, rewrites := range []bool{true, false} {
		res, err := e.ExecWith("SELECT DISTINCT f FROM m ORDER BY f", ExecOptions{DisablePatchRewrites: !rewrites})
		if err != nil {
			t.Fatal(err)
		}
		if got := render(res.Rows); got != "[[0] [1.5] [2.5]]" {
			t.Errorf("after append, rewrites=%v: DISTINCT = %s, want [[0] [1.5] [2.5]]", rewrites, got)
		}
	}
}

// TestJoinKeyTypesMustMatch: an equi-join of a BIGINT key with a DOUBLE
// key is rejected with *plan.JoinKeyTypeError in either orientation, with
// and without an NSC PatchIndex on the DOUBLE side. Neither join kernel
// converts keys, so such a join used to count 0 rows, fail in the hash
// probe, or panic in the merge join.
func TestJoinKeyTypesMustMatch(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE a (k BIGINT, x BIGINT) SORTKEY k")
	mustExec(t, e, "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)")
	mustExec(t, e, "CREATE TABLE b (k DOUBLE, y BIGINT)")
	mustExec(t, e, "INSERT INTO b VALUES (1.0, 1), (2.5, 2), (3.0, 3), (0.5, 4)")
	run := func(q string) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		_, err = e.Exec(q)
		return err
	}
	for _, index := range []bool{false, true} {
		if index {
			mustExec(t, e, "CREATE PATCHINDEX ON b(k) SORTED")
		}
		for _, q := range []string{
			"SELECT COUNT(*) FROM a JOIN b ON a.k = b.k",
			"SELECT COUNT(*) FROM b JOIN a ON b.k = a.k",
		} {
			var kerr *plan.JoinKeyTypeError
			if err := run(q); !errors.As(err, &kerr) {
				t.Errorf("index=%v: %s: err = %v, want *plan.JoinKeyTypeError", index, q, err)
			}
		}
	}
	// BIGINT = DATE stays a valid join.
	mustExec(t, e, "CREATE TABLE d (k DATE)")
	mustExec(t, e, "INSERT INTO d VALUES (DATE '1970-01-02')")
	if r := mustExec(t, e, "SELECT COUNT(*) FROM a JOIN d ON a.k = d.k"); r.Rows[0][0].I64 != 1 {
		t.Errorf("BIGINT = DATE join = %v, want 1", r.Rows)
	}
}
