// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section VII) at a configurable
// scale. Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/discovery"
	"patchindex/internal/obs"
	"patchindex/internal/patch"
)

// Config scales the experiments.
type Config struct {
	// Rows is the custom-generator dataset size (paper: 100M).
	Rows int `json:"rows"`
	// CustomerRows scales the TPC-DS customer table (paper: 12M at SF1000).
	CustomerRows int `json:"customer_rows"`
	// SalesRows scales the catalog_sales fact table (paper: 1.4B).
	SalesRows int `json:"sales_rows"`
	// Partitions is the table partition count (paper: 24).
	Partitions int `json:"partitions"`
	// Rates is the exception-rate sweep for Figures 4-6.
	Rates []float64 `json:"rates"`
	// Reps is the number of repetitions per measurement (median reported).
	Reps int `json:"reps"`
	// Parallelism is the degree of intra-query parallelism for every engine
	// the experiments create (0 = engine default, 1 = serial, >1 = bounded
	// worker pool) and the worker bound for parallel index builds.
	Parallelism int   `json:"parallelism,omitempty"`
	Seed        int64 `json:"seed"`

	// Metrics, when non-nil, is shared by every engine the experiments
	// create, so a run accumulates engine-wide counters across experiments.
	Metrics *obs.Registry `json:"-"`
	// Record, when non-nil, receives every individual measurement in
	// addition to the human-readable report written to w.
	Record func(Measurement) `json:"-"`
}

// Measurement is one machine-readable data point of an experiment.
type Measurement struct {
	// Experiment is the experiment id (e.g. "fig4").
	Experiment string `json:"experiment"`
	// Name identifies the series/variant (e.g. "u/identifier").
	Name string `json:"name"`
	// Rate is the exception rate of the data point, where applicable.
	Rate float64 `json:"rate,omitempty"`
	// Value is the measured quantity.
	Value float64 `json:"value"`
	// Unit is the unit of Value ("ms", "bytes", ...).
	Unit string `json:"unit"`
}

// record forwards a measurement to cfg.Record when set.
func (c Config) record(exp, name string, rate, value float64, unit string) {
	if c.Record != nil {
		c.Record(Measurement{Experiment: exp, Name: name, Rate: rate, Value: value, Unit: unit})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// DefaultConfig returns a laptop-scale configuration (about 1/10 of the
// paper's customer table and 1/10 of its custom dataset).
func DefaultConfig() Config {
	return Config{
		Rows:         10_000_000,
		CustomerRows: 1_200_000,
		SalesRows:    10_000_000,
		Partitions:   24,
		Rates:        []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		Reps:         3,
		Seed:         1,
	}
}

// QuickConfig returns a fast configuration for smoke runs and tests.
func QuickConfig() Config {
	return Config{
		Rows:         200_000,
		CustomerRows: 100_000,
		SalesRows:    200_000,
		Partitions:   4,
		Rates:        []float64{0, 0.2, 0.5, 0.8},
		Reps:         1,
		Seed:         1,
	}
}

// Experiment names accepted by Run.
const (
	ExpTable1  = "table1"
	ExpNSCJoin = "nsc-join"
	ExpFig4    = "fig4"
	ExpFig5    = "fig5"
	ExpFig6    = "fig6"
	ExpMemory  = "memory"
)

// All lists every experiment id in paper order.
func All() []string {
	return []string{ExpNSCJoin, ExpTable1, ExpFig4, ExpFig5, ExpFig6, ExpMemory}
}

// Run executes one experiment by id, writing its report to w.
func Run(id string, cfg Config, w io.Writer) error {
	switch id {
	case ExpTable1:
		return Table1(cfg, w)
	case ExpNSCJoin:
		return NSCJoin(cfg, w)
	case ExpFig4:
		return Fig4(cfg, w)
	case ExpFig5:
		return Fig5(cfg, w)
	case ExpFig6:
		return Fig6(cfg, w)
	case ExpMemory:
		return Memory(cfg, w)
	default:
		return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, All())
	}
}

// median runs fn reps times and returns the median duration.
func median(reps int, fn func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// newEngine creates a bench engine with the config's execution options.
func newEngine(cfg Config) (*patchindex.Engine, error) {
	return patchindex.New(patchindex.Config{
		DefaultPartitions: cfg.Partitions,
		Parallelism:       cfg.Parallelism,
		Metrics:           cfg.Metrics,
	})
}

// loadCustomTable registers the custom-generator table in an engine.
func loadCustomTable(e *patchindex.Engine, cfg Config, uniqueRate, sortedRate float64) error {
	t, err := datagen.LoadCustom("data", cfg.Rows, cfg.Partitions, uniqueRate, sortedRate, cfg.Seed)
	if err != nil {
		return err
	}
	return e.Catalog().AddTable(t)
}

// Table1 reproduces Table I: count-distinct runtime on the customer table
// for a column with few exceptions (c_email_address, ~3.6 %) and one with
// very many (c_current_addr_sk, ~86.5 %), with and without a PatchIndex.
func Table1(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "== Table I: performance of NUC PatchIndex (customer, %d rows, %d partitions) ==\n",
		cfg.CustomerRows, cfg.Partitions)
	e, err := newEngine(cfg)
	if err != nil {
		return err
	}
	defer e.Close()
	cust, err := datagen.GenCustomer(datagen.TPCDSConfig{
		CustomerRows: cfg.CustomerRows, Partitions: cfg.Partitions, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	if err := e.Catalog().AddTable(cust); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s %-11s %-10s %-10s %-8s\n", "column", "exceptions", "w/o PI", "w/ PI", "speedup")
	for _, col := range []string{"c_email_address", "c_current_addr_sk"} {
		ix, err := e.CreatePatchIndex("customer", col, patch.NearlyUnique, discovery.BuildOptions{
			Kind: patch.Auto, Threshold: 1.0,
		})
		if err != nil {
			return err
		}
		q := fmt.Sprintf("SELECT COUNT(DISTINCT %s) FROM customer", col)
		base, err := median(cfg.Reps, func() error {
			_, err := e.DrainWith(q, patchindex.ExecOptions{DisablePatchRewrites: true})
			return err
		})
		if err != nil {
			return err
		}
		withPI, err := median(cfg.Reps, func() error {
			_, err := e.DrainWith(q, patchindex.ExecOptions{})
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s %-11s %-10s %-10s %.2fx\n",
			col, fmt.Sprintf("%.1f%%", 100*ix.ExceptionRate()),
			base.Round(time.Millisecond), withPI.Round(time.Millisecond),
			float64(base)/float64(withPI))
		cfg.record(ExpTable1, col+"/base", ix.ExceptionRate(), ms(base), "ms")
		cfg.record(ExpTable1, col+"/patchindex", ix.ExceptionRate(), ms(withPI), "ms")
	}
	return nil
}

// NSCJoin reproduces the Section VII-A1 experiment: joining the nearly
// sorted catalog_sales fact table with the sorted date_dim dimension, with
// and without the PatchIndex on cs_sold_date_sk (paper: 1.4 s → 0.7 s).
func NSCJoin(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "== §VII-A1: NSC fact⋈dimension join (catalog_sales %d rows, date_dim %d rows) ==\n",
		cfg.SalesRows, datagen.DateDimRows)
	e, err := newEngine(cfg)
	if err != nil {
		return err
	}
	defer e.Close()
	sales, err := datagen.GenCatalogSales(datagen.TPCDSConfig{
		SalesRows: cfg.SalesRows, Partitions: cfg.Partitions, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	if err := e.Catalog().AddTable(sales); err != nil {
		return err
	}
	dates, err := datagen.GenDateDim()
	if err != nil {
		return err
	}
	if err := e.Catalog().AddTable(dates); err != nil {
		return err
	}
	ix, err := e.CreatePatchIndex("catalog_sales", "cs_sold_date_sk", patch.NearlySorted, discovery.BuildOptions{
		Kind: patch.Auto, Threshold: 1.0,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "exception rate after discovery: %.3f%%\n", 100*ix.ExceptionRate())
	q := "SELECT COUNT(*) FROM date_dim JOIN catalog_sales ON d_date_sk = cs_sold_date_sk"
	base, err := median(cfg.Reps, func() error {
		_, err := e.DrainWith(q, patchindex.ExecOptions{DisablePatchRewrites: true})
		return err
	})
	if err != nil {
		return err
	}
	withPI, err := median(cfg.Reps, func() error {
		_, err := e.DrainWith(q, patchindex.ExecOptions{})
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %-10s\n", "plan", "runtime")
	fmt.Fprintf(w, "%-28s %-10s\n", "HashJoin (w/o PI)", base.Round(time.Millisecond))
	fmt.Fprintf(w, "%-28s %-10s\n", "MergeJoin+patches (w/ PI)", withPI.Round(time.Millisecond))
	fmt.Fprintf(w, "speedup: %.2fx (paper: ~2x)\n", float64(base)/float64(withPI))
	cfg.record(ExpNSCJoin, "hashjoin/base", ix.ExceptionRate(), ms(base), "ms")
	cfg.record(ExpNSCJoin, "mergejoin/patchindex", ix.ExceptionRate(), ms(withPI), "ms")
	return nil
}

// kindSweep runs fn for the baseline (no index) and both index
// representations, returning the three median runtimes.
func kindSweep(e *patchindex.Engine, cfg Config, col string, c patch.Constraint, q string) (base, ident, bitmap time.Duration, err error) {
	base, err = median(cfg.Reps, func() error {
		_, err := e.DrainWith(q, patchindex.ExecOptions{DisablePatchRewrites: true})
		return err
	})
	if err != nil {
		return
	}
	for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
		if _, err = e.CreatePatchIndex("data", col, c, discovery.BuildOptions{Kind: kind, Threshold: 1.0}); err != nil {
			return
		}
		var d time.Duration
		d, err = median(cfg.Reps, func() error {
			_, err := e.DrainWith(q, patchindex.ExecOptions{})
			return err
		})
		if err != nil {
			return
		}
		if kind == patch.Identifier {
			ident = d
		} else {
			bitmap = d
		}
		if _, derr := e.Exec(fmt.Sprintf("DROP PATCHINDEX ON data(%s)", col)); derr != nil {
			err = derr
			return
		}
	}
	return
}

// Fig4 reproduces Figure 4: count-distinct runtime with varying uniqueness
// exception rate, for no index and both representations.
// TraceQuery builds the custom dataset at cfg scale with a 5% exception
// rate, creates the NUC PatchIndex on u, runs one query with tracing
// forced, and returns its completed trace (span tree included) — the
// profiling artifact behind patchbench -trace. An empty sqlText runs the
// canonical count-distinct benchmark query.
func TraceQuery(cfg Config, sqlText string) (*obs.Trace, error) {
	if sqlText == "" {
		sqlText = "SELECT COUNT(DISTINCT u) FROM data"
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := loadCustomTable(e, cfg, 0.05, 0.05); err != nil {
		return nil, err
	}
	if _, err := e.CreatePatchIndex("data", "u", patch.NearlyUnique, discovery.BuildOptions{Threshold: 1}); err != nil {
		return nil, err
	}
	res, err := e.ExecWith(sqlText, patchindex.ExecOptions{Trace: true})
	if err != nil {
		return nil, err
	}
	t := e.Tracer().Get(res.TraceID)
	if t == nil {
		return nil, fmt.Errorf("bench: trace %d not retained", res.TraceID)
	}
	return t, nil
}

func Fig4(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "== Figure 4: count distinct vs. exception rate (%d rows) ==\n", cfg.Rows)
	fmt.Fprintf(w, "%-8s %-12s %-14s %-14s\n", "rate", "w/o PI", "PI identifier", "PI bitmap")
	for _, rate := range cfg.Rates {
		e, err := newEngine(cfg)
		if err != nil {
			return err
		}
		if err := loadCustomTable(e, cfg, rate, 0); err != nil {
			return err
		}
		base, ident, bitmap, err := kindSweep(e, cfg, "u", patch.NearlyUnique,
			"SELECT COUNT(DISTINCT u) FROM data")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %-12s %-14s %-14s\n", fmt.Sprintf("%.0f%%", 100*rate),
			base.Round(time.Millisecond), ident.Round(time.Millisecond), bitmap.Round(time.Millisecond))
		cfg.record(ExpFig4, "base", rate, ms(base), "ms")
		cfg.record(ExpFig4, "identifier", rate, ms(ident), "ms")
		cfg.record(ExpFig4, "bitmap", rate, ms(bitmap), "ms")
		e.Close()
	}
	return nil
}

// Fig5 reproduces Figure 5: sort-query runtime with varying sortedness
// exception rate.
func Fig5(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "== Figure 5: sort query vs. exception rate (%d rows) ==\n", cfg.Rows)
	fmt.Fprintf(w, "%-8s %-12s %-14s %-14s\n", "rate", "w/o PI", "PI identifier", "PI bitmap")
	for _, rate := range cfg.Rates {
		e, err := newEngine(cfg)
		if err != nil {
			return err
		}
		if err := loadCustomTable(e, cfg, 0, rate); err != nil {
			return err
		}
		base, ident, bitmap, err := kindSweep(e, cfg, "s", patch.NearlySorted,
			"SELECT s FROM data ORDER BY s")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %-12s %-14s %-14s\n", fmt.Sprintf("%.0f%%", 100*rate),
			base.Round(time.Millisecond), ident.Round(time.Millisecond), bitmap.Round(time.Millisecond))
		cfg.record(ExpFig5, "base", rate, ms(base), "ms")
		cfg.record(ExpFig5, "identifier", rate, ms(ident), "ms")
		cfg.record(ExpFig5, "bitmap", rate, ms(bitmap), "ms")
		e.Close()
	}
	return nil
}

// Fig6 reproduces Figure 6: PatchIndex creation time with varying exception
// rate, for NUC and NSC and both representations.
func Fig6(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "== Figure 6: PatchIndex creation time vs. exception rate (%d rows) ==\n", cfg.Rows)
	fmt.Fprintf(w, "%-8s %-16s %-16s %-16s %-16s\n", "rate", "NUC identifier", "NUC bitmap", "NSC identifier", "NSC bitmap")
	for _, rate := range cfg.Rates {
		e, err := newEngine(cfg)
		if err != nil {
			return err
		}
		if err := loadCustomTable(e, cfg, rate, rate); err != nil {
			return err
		}
		var times [4]time.Duration
		i := 0
		for _, c := range []patch.Constraint{patch.NearlyUnique, patch.NearlySorted} {
			col := "u"
			if c == patch.NearlySorted {
				col = "s"
			}
			for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
				d, err := median(cfg.Reps, func() error {
					_, err := e.CreatePatchIndex("data", col, c, discovery.BuildOptions{Kind: kind, Threshold: 1.0})
					if err != nil {
						return err
					}
					_, err = e.Exec(fmt.Sprintf("DROP PATCHINDEX ON data(%s)", col))
					return err
				})
				if err != nil {
					return err
				}
				times[i] = d
				i++
			}
		}
		fmt.Fprintf(w, "%-8s %-16s %-16s %-16s %-16s\n", fmt.Sprintf("%.0f%%", 100*rate),
			times[0].Round(time.Millisecond), times[1].Round(time.Millisecond),
			times[2].Round(time.Millisecond), times[3].Round(time.Millisecond))
		for i, name := range []string{"nuc/identifier", "nuc/bitmap", "nsc/identifier", "nsc/bitmap"} {
			cfg.record(ExpFig6, name, rate, ms(times[i]), "ms")
		}
		e.Close()
	}
	return nil
}

// Memory reproduces Section VII-B3: memory consumption of both
// representations over the exception-rate sweep. The paper reports 12.5 MB
// constant for the bitmap on 100M rows and 7.9 MB per 1 % exceptions for the
// identifier approach, with the crossover at ~1.6 %.
func Memory(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "== §VII-B3: PatchIndex memory consumption (%d rows) ==\n", cfg.Rows)
	fmt.Fprintf(w, "%-8s %-12s %-14s %-14s %-10s\n", "rate", "patches", "identifier", "bitmap", "auto picks")
	rates := append([]float64{0.005, 0.01, patch.CrossoverRate, 0.02, 0.05}, cfg.Rates...)
	for _, rate := range rates {
		e, err := newEngine(cfg)
		if err != nil {
			return err
		}
		if err := loadCustomTable(e, cfg, rate, 0); err != nil {
			return err
		}
		var identBytes, bitmapBytes, card int
		var autoKind patch.Kind
		for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
			ix, err := e.CreatePatchIndex("data", "u", patch.NearlyUnique, discovery.BuildOptions{Kind: kind, Threshold: 1.0})
			if err != nil {
				return err
			}
			if kind == patch.Identifier {
				identBytes = ix.MemoryBytes()
				card = ix.Cardinality()
				autoKind = patch.Choose(ix.Cardinality(), ix.NumRows())
			} else {
				bitmapBytes = ix.MemoryBytes()
			}
			if _, err := e.Exec("DROP PATCHINDEX ON data(u)"); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%-8s %-12d %-14s %-14s %-10s\n", fmt.Sprintf("%.2f%%", 100*rate),
			card, fmtMB(identBytes), fmtMB(bitmapBytes), autoKind)
		cfg.record(ExpMemory, "identifier", rate, float64(identBytes), "bytes")
		cfg.record(ExpMemory, "bitmap", rate, float64(bitmapBytes), "bytes")
		e.Close()
	}
	return nil
}

func fmtMB(b int) string {
	return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
}
