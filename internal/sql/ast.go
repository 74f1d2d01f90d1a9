package sql

import "patchindex/internal/vector"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 if absent
}

func (*SelectStmt) stmt() {}

// SelectItem is one entry of the select list.
type SelectItem struct {
	Star  bool // SELECT *
	Expr  Expr
	Alias string
}

// TableRef names a table — or a derived table (subquery), in which case
// Alias is mandatory — with an optional alias.
type TableRef struct {
	Name     string
	Alias    string
	Subquery *SelectStmt // non-nil for derived tables
}

// JoinClause is an INNER or LEFT OUTER JOIN with a single equality
// condition.
type JoinClause struct {
	Table *TableRef
	Outer bool
	// ON Left = Right (both column references)
	Left, Right *ColName
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CreateTableStmt creates a table.
type CreateTableStmt struct {
	Name       string
	Columns    []ColumnDef
	Partitions int // 0 = default
	SortKey    string
}

func (*CreateTableStmt) stmt() {}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Typ  vector.Type
}

// DropTableStmt drops a table.
type DropTableStmt struct{ Name string }

func (*DropTableStmt) stmt() {}

// InsertStmt inserts literal rows.
type InsertStmt struct {
	Table string
	Rows  [][]Expr // literals only
}

func (*InsertStmt) stmt() {}

// CreatePatchIndexStmt creates a PatchIndex:
//
//	CREATE PATCHINDEX ON t(c) UNIQUE|SORTED [DESC]
//	    [THRESHOLD x] [KIND IDENTIFIER|BITMAP|AUTO] [FORCE]
type CreatePatchIndexStmt struct {
	Table      string
	Column     string
	Unique     bool // true = NUC, false = NSC
	Descending bool
	Threshold  float64 // default 1.0
	Kind       string  // "identifier", "bitmap", "auto"
	Force      bool
}

func (*CreatePatchIndexStmt) stmt() {}

// DropPatchIndexStmt drops a PatchIndex.
type DropPatchIndexStmt struct {
	Table  string
	Column string
}

func (*DropPatchIndexStmt) stmt() {}

// CopyStmt bulk-loads a CSV file into a table:
//
//	COPY t FROM 'file.csv' [WITH HEADER]
type CopyStmt struct {
	Table  string
	Path   string
	Header bool
}

func (*CopyStmt) stmt() {}

// ExplainStmt wraps a SELECT for plan display. With Analyze set the query is
// executed and the plan is annotated with runtime statistics.
type ExplainStmt struct {
	Query   *SelectStmt
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// ShowStmt is SHOW <view> [FOR <arg>]: What is the lowercased view name and
// Arg the FOR argument (a metric name for SHOW TIMESERIES). The engine
// resolves the view.
type ShowStmt struct {
	What string
	Arg  string
}

func (*ShowStmt) stmt() {}

// AlterTunerStmt controls the background tuner:
//
//	ALTER TUNER START | STOP | NOW | ROLLBACK
//
// START/STOP flip the background loop, NOW runs one tuning cycle
// synchronously, ROLLBACK restores the index set captured when the tuner
// was created (dropping auto-created indexes, re-creating dropped ones).
type AlterTunerStmt struct {
	Action string // "start", "stop", "now", "rollback"
}

func (*AlterTunerStmt) stmt() {}

// CheckpointStmt is CHECKPOINT: flush dirty partitions to compressed
// segment files, write the catalog manifest, and rotate the WAL so restart
// replays only records after this point. Requires a durable engine
// (Config.DataDir).
type CheckpointStmt struct{}

func (*CheckpointStmt) stmt() {}

// Expr is an unbound AST expression.
type Expr interface{ expr() }

// ColName references a column, optionally qualified.
type ColName struct {
	Table string // optional qualifier
	Name  string
}

func (*ColName) expr() {}

// Lit is a literal value.
type Lit struct{ Val vector.Value }

func (*Lit) expr() {}

// BinOp is a binary operation (comparison, boolean, arithmetic).
type BinOp struct {
	Op          string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/", "%"
	Left, Right Expr
}

func (*BinOp) expr() {}

// NotExpr is NOT e.
type NotExpr struct{ Input Expr }

func (*NotExpr) expr() {}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	Input   Expr
	Negated bool
}

func (*IsNullExpr) expr() {}

// FuncCall is an aggregate function call.
type FuncCall struct {
	Name     string // COUNT, SUM, MIN, MAX (upper case)
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT c)
	Arg      Expr
}

func (*FuncCall) expr() {}
