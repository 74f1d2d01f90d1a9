package discovery

import (
	"context"
	"fmt"

	"patchindex/internal/morsel"
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
	// and patch-set construction (capped by morsel.Workers at
	// runtime.GOMAXPROCS(0) and the partition count). <= 1 runs serially.
	Parallelism int
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
	workers := morsel.Workers(max(opts.Parallelism, 1), nParts)
	cols := make([]*vector.Vector, nParts)
	totalRows := 0
	for p := range cols {
		cols[p] = table.Partition(p).Column(colIdx)
		totalRows += cols[p].Len()
	}
	var perPart [][]uint64
	switch c {
	case patch.NearlySorted:
		// NSC discovery is partition-local (Section VI-A2), so the longest
		// sorted subsequence of each partition is an independent morsel.
		perPart = make([][]uint64, nParts)
		err = morsel.ForEach(context.TODO(), nParts, workers, func(_, p int) error {
			perPart[p] = DiscoverNSC(cols[p], opts.Descending).Patches
			return nil
		})
	case patch.NearlyUnique:
		// NUC duplicate detection is global: the grouping subquery of the
		// discovery SQL spans the table, then "each partition's PatchIndex
		// receives all tuple identifiers for its responsible partition".
		perPart, err = nucPatches(cols, workers)
	default:
		return nil, fmt.Errorf("discovery: unknown constraint %v", c)
	}
	if err != nil {
		return nil, err
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
	// The combine step: one morsel builds one partition's physical patch set.
	if err := morsel.ForEach(context.TODO(), nParts, workers, func(_, p int) error {
		return ix.SetPartition(p, perPart[p], cols[p].Len())
	}); err != nil {
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
