package discovery

import (
	"sort"

	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// Proposal is one constraint the Advisor found to hold approximately.
type Proposal struct {
	Table         string
	Column        string
	Constraint    patch.Constraint
	Descending    bool
	ExceptionRate float64
	// RecommendedKind is the representation the 1/64 rule selects.
	RecommendedKind patch.Kind
	// EstimatedBytes is the memory the recommended representation needs.
	EstimatedBytes int
}

// AdvisorConfig bounds the advisor's search.
type AdvisorConfig struct {
	// NUCThreshold is the nuc_threshold for classification (Definition III.3).
	NUCThreshold float64
	// NSCThreshold is the nsc_threshold for classification.
	NSCThreshold float64
	// MaxRows caps the rows sampled per column (0 = all rows). Sampling a
	// prefix keeps advisory scans cheap on large tables; exception rates on
	// the prefix estimate the full rate.
	MaxRows int
	// CheckDescending also probes for nearly descending-sorted columns.
	CheckDescending bool
}

// DefaultAdvisorConfig mirrors the evaluation's setup: both thresholds at
// 10 % and a full scan.
func DefaultAdvisorConfig() AdvisorConfig {
	return AdvisorConfig{NUCThreshold: 0.1, NSCThreshold: 0.1}
}

// Advise scans every column of the table and proposes PatchIndexes for every
// column that qualifies as a NUC or NSC under the configured thresholds.
// This is the hook that "can be easily integrated into arbitrary automatic
// database administration tools" (Section IV). Proposals are sorted by
// exception rate (most constraint-like first).
func Advise(table *storage.Table, cfg AdvisorConfig) []Proposal {
	var out []Proposal
	schema := table.Schema()
	for colIdx, col := range schema.Columns {
		// One prefix view per partition, shared by the global duplicate pass
		// (NUC is global across partitions) and the per-partition NSC scans.
		cols := make([]*vector.Vector, table.NumPartitions())
		for p := range cols {
			cols[p] = sampled(table.Partition(p).Column(colIdx), cfg.MaxRows, len(cols))
		}
		totalRows, nucCount, nscPatches, nscDescPatches := 0, 0, 0, 0
		for _, patches := range nucPatches(cols, 1) {
			nucCount += len(patches)
		}
		for _, v := range cols {
			n := v.Len()
			totalRows += n
			nscPatches += n - LongestSortedSubsequenceLength(v, false)
			if cfg.CheckDescending {
				nscDescPatches += n - LongestSortedSubsequenceLength(v, true)
			}
		}
		if totalRows == 0 {
			continue
		}
		if rate := float64(nucCount) / float64(totalRows); rate <= cfg.NUCThreshold {
			out = append(out, proposal(table.Name(), col.Name, patch.NearlyUnique, false, rate, totalRows))
		}
		ascRate := float64(nscPatches) / float64(totalRows)
		descRate := 2.0
		if cfg.CheckDescending {
			descRate = float64(nscDescPatches) / float64(totalRows)
		}
		switch {
		case ascRate <= cfg.NSCThreshold && ascRate <= descRate:
			out = append(out, proposal(table.Name(), col.Name, patch.NearlySorted, false, ascRate, totalRows))
		case descRate <= cfg.NSCThreshold:
			out = append(out, proposal(table.Name(), col.Name, patch.NearlySorted, true, descRate, totalRows))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ExceptionRate < out[j].ExceptionRate })
	return out
}

func proposal(table, column string, c patch.Constraint, desc bool, rate float64, rows int) Proposal {
	numPatches := int(rate * float64(rows))
	kind := patch.Choose(numPatches, rows)
	bytes := 8 * numPatches
	if kind == patch.Bitmap {
		bytes = (rows + 63) / 64 * 8
	}
	return Proposal{
		Table: table, Column: column, Constraint: c, Descending: desc,
		ExceptionRate: rate, RecommendedKind: kind, EstimatedBytes: bytes,
	}
}

// sampled returns a prefix view of v so that at most maxRows/numParts rows
// per partition are examined (0 = no cap).
func sampled(v *vector.Vector, maxRows, numParts int) *vector.Vector {
	if maxRows <= 0 {
		return v
	}
	per := maxRows / numParts
	if per < 1 {
		per = 1
	}
	if v.Len() <= per {
		return v
	}
	return v.Slice(0, per)
}
