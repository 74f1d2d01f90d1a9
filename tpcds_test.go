package patchindex

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"patchindex/internal/datagen"
	"patchindex/internal/discovery"
)

// loadTPCDS builds the full TPC-DS-lite schema in an engine at test scale.
func loadTPCDS(t *testing.T, parallel bool) *Engine {
	t.Helper()
	parallelism := 0
	if parallel {
		parallelism = 2 * runtime.GOMAXPROCS(0)
	}
	e, err := New(Config{DefaultPartitions: 6, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	cfg := datagen.TPCDSConfig{CustomerRows: 60_000, SalesRows: 120_000, Partitions: 6, Seed: 2}
	cust, err := datagen.GenCustomer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sales, err := datagen.GenCatalogSales(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dates, err := datagen.GenDateDim()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddTable(cust); err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddTable(sales); err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().AddTable(dates); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTPCDSEndToEnd runs the paper's two TPC-DS use cases end-to-end through
// SQL and cross-checks rewritten plans against baselines.
func TestTPCDSEndToEnd(t *testing.T) {
	e := loadTPCDS(t, false)

	// NUC indexes on the customer columns of Table I.
	mustExec(t, e, "CREATE PATCHINDEX ON customer(c_email_address) UNIQUE THRESHOLD 0.1")
	mustExec(t, e, "CREATE PATCHINDEX ON customer(c_current_addr_sk) UNIQUE THRESHOLD 0.9")
	// NSC index on the fact table's date key (§VII-A1).
	mustExec(t, e, "CREATE PATCHINDEX ON catalog_sales(cs_sold_date_sk) SORTED THRESHOLD 0.05")

	queries := []string{
		"SELECT COUNT(DISTINCT c_email_address) FROM customer",
		"SELECT COUNT(DISTINCT c_current_addr_sk) FROM customer",
		"SELECT COUNT(*) FROM date_dim JOIN catalog_sales ON d_date_sk = cs_sold_date_sk",
		"SELECT COUNT(*), SUM(cs_quantity) FROM date_dim JOIN catalog_sales ON d_date_sk = cs_sold_date_sk WHERE d_year >= 1950",
		"SELECT cs_sold_date_sk FROM catalog_sales ORDER BY cs_sold_date_sk LIMIT 50",
	}
	for _, q := range queries {
		withPI := mustExec(t, e, q)
		base, err := e.ExecWith(q, ExecOptions{DisablePatchRewrites: true})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fmt.Sprint(withPI.Rows) != fmt.Sprint(base.Rows) {
			t.Errorf("%s:\n  with PI: %v\n  baseline: %v", q, firstRows(withPI), firstRows(base))
		}
	}

	// The join must actually run as merge joins per partition.
	exp := mustExec(t, e, "EXPLAIN SELECT COUNT(*) FROM date_dim JOIN catalog_sales ON d_date_sk = cs_sold_date_sk")
	if got := strings.Count(exp.Message, "MergeJoin"); got != 6 {
		t.Errorf("expected 6 per-partition merge joins, got %d:\n%s", got, exp.Message)
	}

	// The threshold classifies honestly: sold_date has ~0.5 % exceptions.
	ix := e.Catalog().Index("catalog_sales", "cs_sold_date_sk")
	if rate := ix.ExceptionRate(); rate > 0.01 {
		t.Errorf("sold_date exception rate %v, expected ~0.5%%", rate)
	}
}

func firstRows(r *Result) string {
	s := fmt.Sprint(r.Rows)
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// TestTPCDSAdvisorFindsThePaperConstraints: the advisor must propose the
// constraints the paper exploits, unprompted.
func TestTPCDSAdvisorFindsThePaperConstraints(t *testing.T) {
	e := loadTPCDS(t, false)
	props, err := e.Advise("catalog_sales", discovery.AdvisorConfig{NUCThreshold: 0.05, NSCThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	foundSold := false
	for _, p := range props {
		if p.Column == "cs_sold_date_sk" && p.Constraint.String() == "NEARLY SORTED" {
			foundSold = true
		}
	}
	if !foundSold {
		t.Errorf("advisor missed the nearly sorted cs_sold_date_sk: %+v", props)
	}
	props, err = e.Advise("customer", discovery.AdvisorConfig{NUCThreshold: 0.05, NSCThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	foundEmail := false
	for _, p := range props {
		if p.Column == "c_email_address" && p.Constraint.String() == "NEARLY UNIQUE" {
			foundEmail = true
		}
		if p.Column == "c_current_addr_sk" && p.Constraint.String() == "NEARLY UNIQUE" {
			t.Error("heavily duplicated column must not qualify under a 5 percent threshold")
		}
	}
	if !foundEmail {
		t.Errorf("advisor missed the nearly unique c_email_address: %+v", props)
	}
}

// TestTPCDSParallel cross-checks the whole scenario under the parallel
// exchange.
func TestTPCDSParallel(t *testing.T) {
	seq := loadTPCDS(t, false)
	par := loadTPCDS(t, true)
	for _, e := range []*Engine{seq, par} {
		mustExec(t, e, "CREATE PATCHINDEX ON catalog_sales(cs_sold_date_sk) SORTED THRESHOLD 0.05")
	}
	q := "SELECT COUNT(*), SUM(cs_net_paid) FROM date_dim JOIN catalog_sales ON d_date_sk = cs_sold_date_sk"
	a := mustExec(t, seq, q)
	b := mustExec(t, par, q)
	// The float sum depends on addition order, which the parallel exchange
	// does not fix — compare with a relative tolerance instead of exactly.
	if len(a.Rows) != 1 || len(b.Rows) != 1 {
		t.Fatalf("parallel result shape differs: %v vs %v", a.Rows, b.Rows)
	}
	if a.Rows[0][0].I64 != b.Rows[0][0].I64 {
		t.Errorf("parallel count differs: %v vs %v", a.Rows, b.Rows)
	}
	sa, sb := a.Rows[0][1].F64, b.Rows[0][1].F64
	if diff := math.Abs(sa - sb); diff > 1e-9*math.Abs(sa) {
		t.Errorf("parallel sum differs beyond tolerance: %v vs %v", sa, sb)
	}
}
