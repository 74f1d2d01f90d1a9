package sql

import (
	"strings"
	"testing"

	"patchindex/internal/vector"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, b FROM t WHERE x >= 1.5 AND y <> 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if texts[0] != "SELECT" || kinds[0] != TokKeyword {
		t.Errorf("first token %v %q", kinds[0], texts[0])
	}
	found := false
	for i, tx := range texts {
		if tx == "it's" && kinds[i] == TokString {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped string not lexed: %v", texts)
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("SELECT 1 -- trailing comment\n, 2")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tok := range toks {
		if tok.Kind == TokNumber {
			n++
		}
	}
	if n != 2 {
		t.Errorf("numbers = %d", n)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Error("bad character must fail")
	}
	if _, err := Lex("a ! b"); err == nil {
		t.Error("bare ! must fail")
	}
}

func TestLexIdentCase(t *testing.T) {
	toks, err := Lex("MyColumn")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "mycolumn" {
		t.Errorf("identifiers must lower-case: %v", toks[0])
	}
}

func parseSelect(t *testing.T, q string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	return sel
}

func TestParseSelectFull(t *testing.T) {
	sel := parseSelect(t, `SELECT DISTINCT a, COUNT(*) AS n FROM t1 x
		JOIN t2 ON x.k = t2.k
		WHERE a > 5 AND b IS NOT NULL
		GROUP BY a HAVING COUNT(*) > 2
		ORDER BY a DESC LIMIT 10;`)
	if !sel.Distinct || len(sel.Items) != 2 {
		t.Error("distinct/items wrong")
	}
	if sel.From.Name != "t1" || sel.From.Alias != "x" {
		t.Errorf("from = %+v", sel.From)
	}
	if len(sel.Joins) != 1 || sel.Joins[0].Table.Name != "t2" {
		t.Errorf("joins = %+v", sel.Joins)
	}
	if sel.Joins[0].Left.Table != "x" || sel.Joins[0].Left.Name != "k" {
		t.Errorf("join left = %+v", sel.Joins[0].Left)
	}
	if sel.Where == nil || len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("where/group/having missing")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Errorf("limit = %d", sel.Limit)
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t")
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Error("star item expected")
	}
	if sel.Limit != -1 {
		t.Error("limit default should be -1")
	}
}

func TestParseAggregates(t *testing.T) {
	sel := parseSelect(t, "SELECT COUNT(DISTINCT c), SUM(x), MIN(y), MAX(z), COUNT(*) FROM t")
	fc := sel.Items[0].Expr.(*FuncCall)
	if !fc.Distinct || fc.Name != "COUNT" {
		t.Errorf("count distinct = %+v", fc)
	}
	if sel.Items[4].Expr.(*FuncCall).Star != true {
		t.Error("count(*) star missing")
	}
}

func TestParseExpressions(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE NOT (a + 1) * 2 >= b % 3 OR c = DATE '2020-01-02'")
	if sel.Where == nil {
		t.Fatal("where missing")
	}
	or, ok := sel.Where.(*BinOp)
	if !ok || or.Op != "OR" {
		t.Fatalf("top op = %+v", sel.Where)
	}
	if _, ok := or.Left.(*NotExpr); !ok {
		t.Errorf("left = %T", or.Left)
	}
	eq := or.Right.(*BinOp)
	lit := eq.Right.(*Lit)
	if lit.Val.Typ != vector.Date {
		t.Errorf("date literal type = %v", lit.Val.Typ)
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3")
	or := sel.Where.(*BinOp)
	if or.Op != "OR" {
		t.Fatalf("OR should bind loosest: %+v", or)
	}
	and := or.Left.(*BinOp)
	if and.Op != "AND" {
		t.Fatalf("AND inside OR: %+v", and)
	}
	// Arithmetic precedence: 1 + 2 * 3 parses as 1 + (2*3).
	sel = parseSelect(t, "SELECT a FROM t WHERE x = 1 + 2 * 3")
	eq := sel.Where.(*BinOp)
	add := eq.Right.(*BinOp)
	if add.Op != "+" {
		t.Fatalf("add = %+v", add)
	}
	if mul := add.Right.(*BinOp); mul.Op != "*" {
		t.Fatalf("mul = %+v", mul)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE a > -5 AND b < -1.5")
	and := sel.Where.(*BinOp)
	l1 := and.Left.(*BinOp).Right.(*Lit)
	if l1.Val.I64 != -5 {
		t.Errorf("int literal = %v", l1.Val)
	}
	l2 := and.Right.(*BinOp).Right.(*Lit)
	if l2.Val.F64 != -1.5 {
		t.Errorf("float literal = %v", l2.Val)
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse("CREATE TABLE t (a BIGINT, b VARCHAR, c DOUBLE, d BOOLEAN, e DATE) PARTITIONS 8 SORTKEY a")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "t" || len(ct.Columns) != 5 || ct.Partitions != 8 || ct.SortKey != "a" {
		t.Errorf("create table = %+v", ct)
	}
	if ct.Columns[4].Typ != vector.Date {
		t.Error("date column type")
	}
	if _, err := Parse("CREATE TABLE t (a BLOB)"); err == nil {
		t.Error("unknown type must fail")
	}
}

func TestParseCreatePatchIndex(t *testing.T) {
	stmt, err := Parse("CREATE PATCHINDEX ON t(c) SORTED DESC THRESHOLD 0.25 KIND BITMAP FORCE")
	if err != nil {
		t.Fatal(err)
	}
	pi := stmt.(*CreatePatchIndexStmt)
	if pi.Table != "t" || pi.Column != "c" || pi.Unique || !pi.Descending ||
		pi.Threshold != 0.25 || pi.Kind != "bitmap" || !pi.Force {
		t.Errorf("patchindex = %+v", pi)
	}
	stmt, err = Parse("CREATE PATCHINDEX ON t(c) UNIQUE")
	if err != nil {
		t.Fatal(err)
	}
	pi = stmt.(*CreatePatchIndexStmt)
	if !pi.Unique || pi.Threshold != 1.0 || pi.Kind != "auto" {
		t.Errorf("defaults = %+v", pi)
	}
	if _, err := Parse("CREATE PATCHINDEX ON t(c)"); err == nil {
		t.Error("missing UNIQUE/SORTED must fail")
	}
	if _, err := Parse("CREATE PATCHINDEX ON t(c) UNIQUE THRESHOLD 2.0"); err == nil {
		t.Error("threshold > 1 must fail")
	}
}

func TestParseDropAndShow(t *testing.T) {
	stmt, err := Parse("DROP TABLE t")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropTableStmt).Name != "t" {
		t.Error("drop table name")
	}
	stmt, err = Parse("DROP PATCHINDEX ON t(c)")
	if err != nil {
		t.Fatal(err)
	}
	dp := stmt.(*DropPatchIndexStmt)
	if dp.Table != "t" || dp.Column != "c" {
		t.Errorf("drop patchindex = %+v", dp)
	}
	if _, err := Parse("SHOW TABLES"); err != nil {
		t.Error(err)
	}
	if _, err := Parse("SHOW PATCHINDEXES"); err != nil {
		t.Error(err)
	}
	// The view name is the engine's to check; the parser takes any word.
	stmt, err = Parse("SHOW tuner_journal")
	if err != nil {
		t.Fatal(err)
	}
	if sh := stmt.(*ShowStmt); sh.What != "tuner_journal" || sh.Arg != "" {
		t.Errorf("show = %+v", sh)
	}
	if _, err := Parse("SHOW SELECT"); err == nil {
		t.Error("SHOW of a reserved word must fail")
	}
}

func TestParseShowAlertsAndTimeseries(t *testing.T) {
	stmt, err := Parse("SHOW ALERTS")
	if err != nil {
		t.Fatal(err)
	}
	if sh := stmt.(*ShowStmt); sh.What != "alerts" {
		t.Errorf("show = %+v", sh)
	}
	stmt, err = Parse("SHOW TIMESERIES FOR index.emp.s.nsc.patch_ratio")
	if err != nil {
		t.Fatal(err)
	}
	sh := stmt.(*ShowStmt)
	if sh.What != "timeseries" || sh.Arg != "index.emp.s.nsc.patch_ratio" {
		t.Errorf("show timeseries = %+v", sh)
	}
	// Keyword-colliding segments ("table", "index") and quoted names parse.
	stmt, err = Parse("SHOW TIMESERIES FOR table.emp.zone_stale_rows")
	if err != nil {
		t.Fatal(err)
	}
	if sh := stmt.(*ShowStmt); sh.Arg != "table.emp.zone_stale_rows" {
		t.Errorf("keyword segment = %+v", sh)
	}
	stmt, err = Parse("SHOW TIMESERIES FOR 'hist.query_nanos.p99'")
	if err != nil {
		t.Fatal(err)
	}
	if sh := stmt.(*ShowStmt); sh.Arg != "hist.query_nanos.p99" {
		t.Errorf("quoted metric = %+v", sh)
	}
	if _, err := Parse("SHOW TIMESERIES FOR"); err == nil {
		t.Error("missing metric must fail")
	}
	if _, err := Parse("SHOW TIMESERIES FOR a..b"); err == nil {
		t.Error("empty metric segment must fail")
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', 3.5)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Errorf("insert = %+v", ins)
	}
	if !ins.Rows[0][2].(*Lit).Val.Null {
		t.Error("NULL literal lost")
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(*ExplainStmt); !ok {
		t.Errorf("got %T", stmt)
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t extra garbage",
		"INSERT INTO t (1)",
		"CREATE VIEW v",
		"DROP INDEX i",
		"SELECT COUNT( FROM t",
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		} else if !strings.Contains(err.Error(), "sql:") {
			t.Errorf("Parse(%q) error lacks prefix: %v", q, err)
		}
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT a FROM t;"); err != nil {
		t.Error(err)
	}
	if _, err := Parse("SELECT a FROM t;;"); err == nil {
		t.Error("double semicolon should fail")
	}
}

func TestParseBoolLiterals(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE flag = TRUE OR other = FALSE")
	or := sel.Where.(*BinOp)
	if !or.Left.(*BinOp).Right.(*Lit).Val.B {
		t.Error("TRUE literal")
	}
	if or.Right.(*BinOp).Right.(*Lit).Val.B {
		t.Error("FALSE literal")
	}
}

func TestParseIsNull(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE a IS NULL AND b IS NOT NULL")
	and := sel.Where.(*BinOp)
	l := and.Left.(*IsNullExpr)
	r := and.Right.(*IsNullExpr)
	if l.Negated || !r.Negated {
		t.Error("IS NULL / IS NOT NULL parsing wrong")
	}
}
