package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"patchindex"
	"patchindex/internal/discovery"
	"patchindex/internal/obs"
	"patchindex/internal/patch"
	sqlpkg "patchindex/internal/sql"
)

// Workload measures the workload observatory (no paper counterpart): the
// per-statement overhead of profiling disabled vs enabled, the cost of the
// observatory's primitives (fingerprinting, aggregate recording, the
// disabled fast path), and a demonstration fixture whose fingerprint,
// benefit-attribution, and shadow accounting are reported and recorded.
func Workload(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "== workload observatory: profiling overhead and attribution demo ==\n")

	// --- primitive costs -------------------------------------------------
	const primIters = 2_000_000
	p := obs.NewProfiler(0)
	start := time.Now()
	for i := 0; i < primIters; i++ {
		so := p.Begin()
		so.AddExecTotals(1, 0, 0)
		so.SetRootCost(1)
		if p.Enabled() {
			return fmt.Errorf("bench: profiler unexpectedly enabled")
		}
	}
	disabledNS := float64(time.Since(start)) / primIters

	p.SetEnabled(true)
	start = time.Now()
	for i := 0; i < primIters; i++ {
		p.Record(nil, 42, "select ?", time.Microsecond, 1, nil, 1)
	}
	recordNS := float64(time.Since(start)) / primIters

	const fpIters = 200_000
	q := "SELECT COUNT(DISTINCT u) FROM data WHERE s IN (1, 2, 3) AND payload > 0.5"
	start = time.Now()
	for i := 0; i < fpIters; i++ {
		sqlpkg.Fingerprint(q)
	}
	fingerprintNS := float64(time.Since(start)) / fpIters

	fmt.Fprintf(w, "%-28s %-12s\n", "primitive", "per call")
	fmt.Fprintf(w, "%-28s %.1f ns\n", "disabled path (Begin+obs)", disabledNS)
	fmt.Fprintf(w, "%-28s %.1f ns\n", "Record (warm fingerprint)", recordNS)
	fmt.Fprintf(w, "%-28s %.1f ns\n", "Fingerprint (82-char stmt)", fingerprintNS)
	cfg.record(ExpWorkload, "disabled-path", 0, disabledNS, "ns")
	cfg.record(ExpWorkload, "record", 0, recordNS, "ns")
	cfg.record(ExpWorkload, "fingerprint", 0, fingerprintNS, "ns")

	// --- end-to-end statement overhead -----------------------------------
	e, err := patchindex.New(patchindex.Config{
		DefaultPartitions: cfg.Partitions, Parallelism: cfg.Parallelism, Metrics: cfg.Metrics,
	})
	if err != nil {
		return err
	}
	defer e.Close()
	if _, err := e.Exec("CREATE TABLE kv (x BIGINT, y BIGINT)"); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO kv VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
	}
	if _, err := e.Exec(sb.String()); err != nil {
		return err
	}
	const stmts = 2000
	runStmts := func() error {
		for i := 0; i < stmts; i++ {
			if _, err := e.Exec("SELECT COUNT(*) FROM kv WHERE y = 3"); err != nil {
				return err
			}
		}
		return nil
	}
	off, err := median(cfg.Reps, runStmts)
	if err != nil {
		return err
	}
	e.Profiler().SetEnabled(true)
	on, err := median(cfg.Reps, runStmts)
	if err != nil {
		return err
	}
	e.Profiler().SetEnabled(false)
	offNS := float64(off) / stmts
	onNS := float64(on) / stmts
	fmt.Fprintf(w, "per-statement (1000-row scan): off=%.0f ns  on=%.0f ns  delta=%.0f ns (%.2f%%)\n",
		offNS, onNS, onNS-offNS, 100*(onNS-offNS)/offNS)
	cfg.record(ExpWorkload, "stmt/off", 0, offNS, "ns")
	cfg.record(ExpWorkload, "stmt/on", 0, onNS, "ns")
	cfg.record(ExpWorkload, "stmt/overhead", 0, onNS-offNS, "ns")

	// --- attribution demo -------------------------------------------------
	demo, err := patchindex.New(patchindex.Config{
		DefaultPartitions: cfg.Partitions, Parallelism: cfg.Parallelism,
		Metrics: cfg.Metrics, WorkloadProfile: true,
	})
	if err != nil {
		return err
	}
	defer demo.Close()
	if err := loadCustomTable(demo, cfg, 0.05, 0.05); err != nil {
		return err
	}
	// NUC index on u so count-distinct rewrites (benefit attribution); no
	// index on s so the sort query shadow-accounts.
	if _, err := demo.CreatePatchIndex("data", "u", patch.NearlyUnique, discovery.BuildOptions{Threshold: 1}); err != nil {
		return err
	}
	workload := []string{
		"SELECT COUNT(DISTINCT u) FROM data",
		"SELECT COUNT(DISTINCT u) FROM data",
		"SELECT s FROM data ORDER BY s",
		"SELECT COUNT(*) FROM data WHERE u < 1000",
		"SELECT COUNT(*) FROM data WHERE u < 5000",
		"SELECT COUNT(*) FROM data WHERE u < 9000",
	}
	for _, q := range workload {
		if _, err := demo.Exec(q); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	if err := patchindex.WriteViews(w, append(patchindex.SurfaceViews("workload"), "benefits"), demo.Exec); err != nil {
		return err
	}
	prof := demo.Profiler()
	for _, b := range prof.Benefit().Snapshot(prof.Tick()) {
		key := b.Table + "[" + b.Constraint + "]"
		if b.Column != "" {
			key = b.Table + "." + b.Column + "[" + b.Constraint + "]"
		}
		cfg.record(ExpWorkload, "benefit/"+key+"/cost_saved", 0, b.CostSaved, "cost")
		cfg.record(ExpWorkload, "benefit/"+key+"/rows_skipped", 0, b.RowsSkipped, "rows")
	}
	for _, sh := range prof.Snapshot().ShadowTables {
		cfg.record(ExpWorkload, "shadow/"+sh.Table, 0, sh.Savings, "cost")
	}
	return nil
}
