package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"patchindex/internal/vector"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	return stmt, nil
}

func (p *Parser) peek() Token    { return p.toks[p.pos] }
func (p *Parser) advance() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) atEOF() bool    { return p.peek().Kind == TokEOF }

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error near offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, got %q", sym, p.peek().Text)
	}
	return nil
}

// softKeywords may be used as ordinary identifiers (column/table names)
// wherever an identifier is expected; they only act as keywords in the
// clause positions that mention them explicitly.
var softKeywords = map[string]bool{
	"KIND": true, "HEADER": true, "THRESHOLD": true, "FORCE": true,
	"PARTITIONS": true, "SORTKEY": true, "IDENTIFIER": true,
	"BITMAP": true, "AUTO": true, "TABLES": true, "PATCHINDEXES": true,
	"COPY": true, "SHOW": true, "DATE": true, "ANALYZE": true,
	"TUNER": true, "ALTER": true,
}

func (p *Parser) expectIdent() (string, error) {
	if t := p.peek(); t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	} else if t.Kind == TokKeyword && softKeywords[t.Text] {
		p.pos++
		return strings.ToLower(t.Text), nil
	}
	return "", p.errorf("expected identifier, got %q", p.peek().Text)
}

// acceptIdentWord consumes a non-reserved word (lexed as a lowercased
// identifier) when it matches, e.g. ALERTS or FOR in SHOW statements.
func (p *Parser) acceptIdentWord(word string) bool {
	if t := p.peek(); t.Kind == TokIdent && t.Text == word {
		p.pos++
		return true
	}
	return false
}

// parseMetricName parses a time-series name: either a quoted string or a
// dotted identifier path like index.emp.s.nsc.patch_ratio (dots lex as
// symbols between identifier segments). Segments that collide with SQL
// keywords — "table", "index" — are accepted and lowercased.
func (p *Parser) parseMetricName() (string, error) {
	if t := p.peek(); t.Kind == TokString {
		p.pos++
		return t.Text, nil
	}
	seg, ok := p.acceptMetricSegment()
	if !ok {
		return "", p.errorf("expected a metric name after FOR")
	}
	name := seg
	for p.acceptSymbol(".") {
		seg, ok = p.acceptMetricSegment()
		if !ok {
			return "", p.errorf("expected a metric name segment after '.'")
		}
		name += "." + seg
	}
	return name, nil
}

// acceptMetricSegment consumes one metric-name segment: an identifier, or a
// keyword token lowercased back to its source form.
func (p *Parser) acceptMetricSegment() (string, bool) {
	switch t := p.peek(); t.Kind {
	case TokIdent:
		p.pos++
		return t.Text, true
	case TokKeyword:
		p.pos++
		return strings.ToLower(t.Text), true
	}
	return "", false
}

func (p *Parser) parseStatement() (Statement, error) {
	switch t := p.peek(); {
	case t.Kind == TokKeyword && t.Text == "SELECT":
		return p.parseSelect()
	case t.Kind == TokKeyword && t.Text == "EXPLAIN":
		p.advance()
		analyze := false
		if t := p.peek(); t.Kind == TokKeyword && t.Text == "ANALYZE" {
			p.advance()
			analyze = true
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel, Analyze: analyze}, nil
	case t.Kind == TokKeyword && t.Text == "CREATE":
		return p.parseCreate()
	case t.Kind == TokKeyword && t.Text == "DROP":
		return p.parseDrop()
	case t.Kind == TokKeyword && t.Text == "INSERT":
		return p.parseInsert()
	case t.Kind == TokKeyword && t.Text == "COPY":
		return p.parseCopy()
	case t.Kind == TokKeyword && t.Text == "SHOW":
		return p.parseShow()
	case t.Kind == TokKeyword && t.Text == "ALTER":
		return p.parseAlter()
	case t.Kind == TokIdent && t.Text == "checkpoint":
		// CHECKPOINT is not a reserved word, so it arrives as an identifier.
		p.advance()
		return &CheckpointStmt{}, nil
	default:
		return nil, p.errorf("expected a statement, got %q", t.Text)
	}
}

// parseShow parses SHOW <view> [FOR <arg>]. Which views exist, and which
// take an argument, is the engine's business.
func (p *Parser) parseShow() (Statement, error) {
	if err := p.expectKeyword("SHOW"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, p.errorf("expected a view name after SHOW")
	}
	s := &ShowStmt{What: name}
	// FOR is not a reserved word, so it arrives as an identifier.
	if p.acceptIdentWord("for") {
		if s.Arg, err = p.parseMetricName(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// parseAlter parses ALTER TUNER START|STOP|NOW|ROLLBACK. The actions are not
// reserved words, so they arrive as (lowercased) identifiers.
func (p *Parser) parseAlter() (Statement, error) {
	if err := p.expectKeyword("ALTER"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TUNER"); err != nil {
		return nil, err
	}
	action, err := p.expectIdent()
	if err != nil {
		return nil, p.errorf("expected START, STOP, NOW or ROLLBACK after ALTER TUNER")
	}
	switch action {
	case "start", "stop", "now", "rollback":
		return &AlterTunerStmt{Action: action}, nil
	default:
		return nil, p.errorf("unknown ALTER TUNER action %q (want START, STOP, NOW or ROLLBACK)", action)
	}
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	sel.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRefOrSubquery()
	if err != nil {
		return nil, err
	}
	sel.From = from
	for {
		outer := false
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if p.acceptKeyword("LEFT") {
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			outer = true
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		jt, err := p.parseTableRefOrSubquery()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		left, err := p.parseColName()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		right, err := p.parseColName()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Table: jt, Outer: outer, Left: left, Right: right})
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errorf("expected a number after LIMIT")
		}
		p.advance()
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.Text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		name, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = name
	} else if t := p.peek(); t.Kind == TokIdent {
		p.advance()
		item.Alias = t.Text
	}
	return item, nil
}

// parseTableRefOrSubquery parses either a plain table reference or a
// parenthesized derived table: "( SELECT ... ) [AS] alias".
func (p *Parser) parseTableRefOrSubquery() (*TableRef, error) {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == "(" {
		p.advance()
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return nil, p.errorf("derived tables require an alias")
		}
		return &TableRef{Alias: alias, Subquery: sub}, nil
	}
	return p.parseTableRef()
}

func (p *Parser) parseTableRef() (*TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent {
		p.advance()
		ref.Alias = t.Text
	}
	return ref, nil
}

func (p *Parser) parseColName() (*ColName, error) {
	first, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.acceptSymbol(".") {
		second, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColName{Table: first, Name: second}, nil
	}
	return &ColName{Name: first}, nil
}

// Expression grammar (loosest to tightest):
//
//	expr    := and (OR and)*
//	and     := not (AND not)*
//	not     := NOT not | cmp
//	cmp     := add ((=|<>|<|<=|>|>=) add | IS [NOT] NULL)?
//	add     := mul ((+|-) mul)*
//	mul     := unary ((*|/|%) unary)*
//	unary   := - unary | primary
//	primary := literal | funcall | colname | ( expr )
func (p *Parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		in, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Input: in}, nil
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind == TokSymbol {
		switch t.Text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.advance()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinOp{Op: t.Text, Left: left, Right: right}, nil
		}
	}
	if p.acceptKeyword("IS") {
		negated := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Input: left, Negated: negated}, nil
	}
	return left, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "+" && t.Text != "-") {
			return left, nil
		}
		p.advance()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: t.Text, Left: left, Right: right}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: t.Text, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == "-" {
		p.advance()
		in, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals, otherwise 0 - e.
		if lit, ok := in.(*Lit); ok {
			switch lit.Val.Typ {
			case vector.Int64:
				return &Lit{Val: vector.IntValue(-lit.Val.I64)}, nil
			case vector.Float64:
				return &Lit{Val: vector.FloatValue(-lit.Val.F64)}, nil
			}
		}
		return &BinOp{Op: "-", Left: &Lit{Val: vector.IntValue(0)}, Right: in}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		if strings.ContainsRune(t.Text, '.') {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", t.Text)
			}
			return &Lit{Val: vector.FloatValue(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.Text)
		}
		return &Lit{Val: vector.IntValue(n)}, nil
	case t.Kind == TokString:
		p.advance()
		return &Lit{Val: vector.StringValue(t.Text)}, nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		p.advance()
		return &Lit{Val: vector.NullValue(vector.Int64)}, nil
	case t.Kind == TokKeyword && t.Text == "TRUE":
		p.advance()
		return &Lit{Val: vector.BoolValue(true)}, nil
	case t.Kind == TokKeyword && t.Text == "FALSE":
		p.advance()
		return &Lit{Val: vector.BoolValue(false)}, nil
	case t.Kind == TokKeyword && t.Text == "DATE":
		p.advance()
		s := p.peek()
		if s.Kind != TokString {
			return nil, p.errorf("expected a date string after DATE")
		}
		p.advance()
		tm, err := time.Parse("2006-01-02", s.Text)
		if err != nil {
			return nil, p.errorf("invalid date %q", s.Text)
		}
		return &Lit{Val: vector.DateFromTime(tm)}, nil
	case t.Kind == TokKeyword && (t.Text == "COUNT" || t.Text == "SUM" || t.Text == "MIN" || t.Text == "MAX"):
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		call := &FuncCall{Name: t.Text}
		if t.Text == "COUNT" && p.acceptSymbol("*") {
			call.Star = true
		} else {
			call.Distinct = p.acceptKeyword("DISTINCT")
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Arg = arg
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return call, nil
	case t.Kind == TokSymbol && t.Text == "(":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		return p.parseColName()
	default:
		return nil, p.errorf("unexpected token %q in expression", t.Text)
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("PATCHINDEX"):
		return p.parseCreatePatchIndex()
	default:
		return nil, p.errorf("expected TABLE or PATCHINDEX after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name}
	for {
		colName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t := p.peek()
		var typeName string
		if t.Kind == TokIdent || t.Kind == TokKeyword {
			typeName = strings.ToUpper(t.Text)
			p.advance()
		} else {
			return nil, p.errorf("expected a type name for column %s", colName)
		}
		typ, err := vector.TypeFromName(typeName)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		stmt.Columns = append(stmt.Columns, ColumnDef{Name: colName, Typ: typ})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptKeyword("PARTITIONS"):
			t := p.peek()
			if t.Kind != TokNumber {
				return nil, p.errorf("expected a number after PARTITIONS")
			}
			p.advance()
			n, err := strconv.Atoi(t.Text)
			if err != nil || n < 1 {
				return nil, p.errorf("invalid partition count %q", t.Text)
			}
			stmt.Partitions = n
		case p.acceptKeyword("SORTKEY"):
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.SortKey = col
		default:
			return stmt, nil
		}
	}
}

func (p *Parser) parseCreatePatchIndex() (Statement, error) {
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	column, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	stmt := &CreatePatchIndexStmt{Table: table, Column: column, Threshold: 1.0, Kind: "auto"}
	switch {
	case p.acceptKeyword("UNIQUE"):
		stmt.Unique = true
	case p.acceptKeyword("SORTED"):
		stmt.Unique = false
		stmt.Descending = p.acceptKeyword("DESC")
	default:
		return nil, p.errorf("expected UNIQUE or SORTED")
	}
	for {
		switch {
		case p.acceptKeyword("THRESHOLD"):
			t := p.peek()
			if t.Kind != TokNumber {
				return nil, p.errorf("expected a number after THRESHOLD")
			}
			p.advance()
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, p.errorf("invalid threshold %q", t.Text)
			}
			stmt.Threshold = f
		case p.acceptKeyword("KIND"):
			switch {
			case p.acceptKeyword("IDENTIFIER"):
				stmt.Kind = "identifier"
			case p.acceptKeyword("BITMAP"):
				stmt.Kind = "bitmap"
			case p.acceptKeyword("AUTO"):
				stmt.Kind = "auto"
			default:
				return nil, p.errorf("expected IDENTIFIER, BITMAP or AUTO after KIND")
			}
		case p.acceptKeyword("FORCE"):
			stmt.Force = true
		default:
			return stmt, nil
		}
	}
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TABLE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Name: name}, nil
	case p.acceptKeyword("PATCHINDEX"):
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		column, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &DropPatchIndexStmt{Table: table, Column: column}, nil
	default:
		return nil, p.errorf("expected TABLE or PATCHINDEX after DROP")
	}
}

func (p *Parser) parseCopy() (Statement, error) {
	if err := p.expectKeyword("COPY"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != TokString {
		return nil, p.errorf("expected a file path string after FROM")
	}
	p.advance()
	stmt := &CopyStmt{Table: table, Path: t.Text}
	if p.acceptKeyword("WITH") {
		if err := p.expectKeyword("HEADER"); err != nil {
			return nil, err
		}
		stmt.Header = true
	} else if p.acceptKeyword("HEADER") {
		stmt.Header = true
	}
	return stmt, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptSymbol(",") {
			return stmt, nil
		}
	}
}
