package discovery

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// BuildOptions configure PatchIndex creation.
type BuildOptions struct {
	// Kind selects the physical representation (default Auto: the 1/64 rule).
	Kind patch.Kind
	// Threshold is the classification threshold (nuc_threshold or
	// nsc_threshold). Creation fails with ErrThresholdExceeded if the
	// discovered exception rate is above it.
	Threshold float64
	// Descending selects the order relation for NSC indexes.
	Descending bool
	// Force creates the index even if the threshold is exceeded.
	Force bool
	// Parallelism bounds the worker pool used for per-partition discovery
	// and patch-set construction (capped at runtime.GOMAXPROCS(0) and the
	// partition count). <= 1 runs serially.
	Parallelism int
}

// buildWorkers resolves the worker count for nParts partitions.
func (o BuildOptions) buildWorkers(nParts int) int {
	w := o.Parallelism
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w > nParts {
		w = nParts
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachPartition runs f(p) for every partition on up to workers
// goroutines, each claiming partitions from a shared counter (the same
// morsel scheme as the executor's Exchange). workers <= 1 runs inline.
func forEachPartition(nParts, workers int, f func(p int)) {
	if workers <= 1 {
		for p := 0; p < nParts; p++ {
			f(p)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1) - 1)
				if p >= nParts {
					return
				}
				f(p)
			}
		}()
	}
	wg.Wait()
}

// ThresholdError reports that a column does not qualify as a NUC/NSC under
// the configured threshold.
type ThresholdError struct {
	Table, Column string
	Constraint    patch.Constraint
	Rate          float64
	Threshold     float64
}

// Error renders the failure.
func (e *ThresholdError) Error() string {
	return fmt.Sprintf("discovery: %s.%s is not a %s column: exception rate %.4f exceeds threshold %.4f",
		e.Table, e.Column, e.Constraint, e.Rate, e.Threshold)
}

// BuildIndex discovers the constraint on every partition of table.column and
// returns a fully populated PatchIndex. This is the library-level
// "AppendToIndex" post-query of Section V: for a NUC the discovery
// aggregation feeds the append, for a NSC the column is scanned into the
// longest-sorted-subsequence computation, after which the temporary data is
// dropped and only P_c is retained.
//
// Partition handling follows Section VI-A2: for NSC the sorted subsequences
// are computed per partition; for NUC duplicate detection is global (a value
// appearing in two partitions is a duplicate) and each partition's set
// receives the identifiers it is responsible for.
func BuildIndex(table *storage.Table, column string, c patch.Constraint, opts BuildOptions) (*patch.Index, error) {
	colIdx := table.Schema().ColumnIndex(column)
	if colIdx < 0 {
		return nil, fmt.Errorf("discovery: table %s has no column %s", table.Name(), column)
	}
	ix, err := patch.NewIndex(table.Name(), column, c, opts.Kind, opts.Threshold, table.NumPartitions())
	if err != nil {
		return nil, err
	}
	ix.SetDescending(opts.Descending)

	nParts := table.NumPartitions()
	workers := opts.buildWorkers(nParts)
	cols := make([]*vector.Vector, nParts)
	rows := make([]int, nParts)
	totalRows := 0
	for p := range cols {
		cols[p] = table.Partition(p).Column(colIdx)
		rows[p] = cols[p].Len()
		totalRows += rows[p]
	}
	var perPart [][]uint64
	switch c {
	case patch.NearlySorted:
		// NSC discovery is partition-local (Section VI-A2), so the longest
		// sorted subsequence of each partition is an independent morsel.
		perPart = make([][]uint64, nParts)
		forEachPartition(nParts, workers, func(p int) {
			perPart[p] = DiscoverNSC(cols[p], opts.Descending).Patches
		})
	case patch.NearlyUnique:
		// NUC duplicate detection is global: the grouping subquery of the
		// discovery SQL spans the table, then "each partition's PatchIndex
		// receives all tuple identifiers for its responsible partition".
		perPart = nucPatches(cols, workers)
	default:
		return nil, fmt.Errorf("discovery: unknown constraint %v", c)
	}
	totalPatches := 0
	for _, patches := range perPart {
		totalPatches += len(patches)
	}

	rate := 0.0
	if totalRows > 0 {
		rate = float64(totalPatches) / float64(totalRows)
	}
	if rate > opts.Threshold && !opts.Force {
		return nil, &ThresholdError{
			Table: table.Name(), Column: column, Constraint: c,
			Rate: rate, Threshold: opts.Threshold,
		}
	}
	if err := ix.SetPartitions(perPart, rows, workers); err != nil {
		return nil, err
	}
	return ix, nil
}

// NUCDiscoverySQL returns the SQL-level discovery query of Section IV for a
// table with a tuple-identifier column tid: it joins the duplicated values
// back to the table with an outer join so that NULL column values are also
// selected into the set of patches.
func NUCDiscoverySQL(table, column string) string {
	return fmt.Sprintf(`select %[1]s.tid from %[1]s
left outer join
        (select %[2]s from %[1]s
        group by %[2]s
        having count(*) > 1)
        as temp
on %[1]s.%[2]s = temp.%[2]s
where temp.%[2]s is not null
or %[1]s.%[2]s is null`, table, column)
}
