package exec

import (
	"context"
	"fmt"

	"patchindex/internal/obs"
	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

// SelectMode is the selection mode of a PatchSelect operator (Section VI-A1).
type SelectMode uint8

const (
	// ExcludePatches passes every tuple that is not in the set of patches.
	// The remaining dataflow satisfies the indexed constraint (unique or
	// sorted).
	ExcludePatches SelectMode = iota
	// UsePatches passes only the tuples that are in the set of patches.
	UsePatches
)

// String names the mode.
func (m SelectMode) String() string {
	if m == UsePatches {
		return "use_patches"
	}
	return "exclude_patches"
}

// PatchSelect applies PatchIndex information to the output of a scan. It is
// the PatchedScan of the paper: a specialized selection placed directly on
// top of a scan operator so that row positions equal tuple identifiers. It
// queries the PatchIndex once during Open ("query build phase") for the
// patch set of its partition and then applies the patches on the fly:
//
//   - identifier-based sets use the merge strategy of Algorithm 1, keeping a
//     patch pointer that only moves forward;
//   - bitmap-based sets scan the bitmap words a batch covers.
//
// Either way the pointer yields the patches of a whole batch at once, and
// the batch's rows move with one typed copy (exclude mode) or gather (use
// mode) per column. Scan ranges are supported by seeking the patch pointer
// to the start of each incoming contiguous batch, skipping patches outside
// the ranges.
type PatchSelect struct {
	opStats
	child Operator
	set   patch.Set
	mode  SelectMode

	it       *patch.Iter
	lastBase uint64
	started  bool
	out      *vector.Batch
	keep     *vector.SelVec // pooled batch-relative offsets of the batch's patches
	probes   int64          // input rows checked against the patch set
	hits     int64          // rows that matched a patch

	// idxTable/idxColumn/idxConstraint identify the PatchIndex this operator
	// was built from, for workload benefit attribution (set by the planner
	// via TagIndex; empty when untagged).
	idxTable, idxColumn, idxConstraint string
}

// TagIndex stamps the identity of the enabling PatchIndex onto the operator
// so post-execution attribution can credit it.
func (p *PatchSelect) TagIndex(table, column, constraint string) {
	p.idxTable, p.idxColumn, p.idxConstraint = table, column, constraint
}

// IndexTag returns the enabling index identity ("" table when untagged).
func (p *PatchSelect) IndexTag() (table, column, constraint string) {
	return p.idxTable, p.idxColumn, p.idxConstraint
}

// SkippedRows returns how many rows this operator let bypass downstream
// work: in exclude mode the patched rows removed from the major dataflow;
// in use mode the non-patch rows that never reached the patch branch.
func (p *PatchSelect) SkippedRows() int64 {
	if p.mode == ExcludePatches {
		return p.hits
	}
	return p.probes - p.hits
}

// NewPatchSelect wraps child (which must emit contiguous batches, i.e. be a
// Scan) with a patch selection against the given per-partition patch set.
func NewPatchSelect(child Operator, set patch.Set, mode SelectMode) (*PatchSelect, error) {
	if set == nil {
		return nil, fmt.Errorf("exec: patch select: nil patch set")
	}
	p := &PatchSelect{child: child, set: set, mode: mode}
	// Exact per-partition cardinality: the patch set knows how many of the
	// partition's rows are patches.
	if mode == UsePatches {
		p.stats.EstRows = int64(set.Cardinality())
	} else {
		p.stats.EstRows = int64(set.NumRows()) - int64(set.Cardinality())
	}
	return p, nil
}

// Name returns the operator name including its mode.
func (p *PatchSelect) Name() string { return fmt.Sprintf("PatchSelect(%s)", p.mode) }

// Types returns the child types.
func (p *PatchSelect) Types() []vector.Type { return p.child.Types() }

// Open opens the child and fetches the patch pointer from the index.
func (p *PatchSelect) Open(ctx context.Context) error {
	p.bindCtx(ctx)
	if err := p.child.Open(ctx); err != nil {
		return err
	}
	// The pointer into the patch data is fetched once here, during the
	// query build phase, and stored in operator state.
	p.it = p.set.Iter(0)
	p.started = false
	p.lastBase = 0
	p.out = vector.NewBatch(p.child.Types())
	p.keep = vector.GetSel()
	return nil
}

// Children returns the single input.
func (p *PatchSelect) Children() []Operator { return []Operator{p.child} }

// ExtraStats reports patch-set probe and hit counts.
func (p *PatchSelect) ExtraStats() []obs.KV {
	return []obs.KV{
		{Key: "patch_probes", Value: p.probes},
		{Key: "patch_hits", Value: p.hits},
	}
}

// Next applies the patch information to the next child batch.
func (p *PatchSelect) Next() (*vector.Batch, error) {
	return p.nextBatch(p.next)
}

func (p *PatchSelect) next() (*vector.Batch, error) {
	for {
		if p.mode == UsePatches && !p.it.Valid() {
			// All patches processed: nothing further can qualify.
			return nil, nil
		}
		b, err := p.child.Next()
		if err != nil {
			return nil, errOp(p, err)
		}
		if b == nil {
			return nil, nil
		}
		if !b.Contiguous {
			return nil, errOp(p, fmt.Errorf("input batch is not contiguous; PatchSelect must sit directly on a scan"))
		}
		if p.started && b.BaseRow < p.lastBase {
			return nil, errOp(p, fmt.Errorf("input batches moved backwards (%d after %d)", b.BaseRow, p.lastBase))
		}
		p.started = true
		p.lastBase = b.BaseRow
		out := p.applyMerge(b)
		if out != nil && out.Len() > 0 {
			return out, nil
		}
	}
}

// applyMerge implements Algorithm 1 (and its use_patches variant) on one
// contiguous batch. It may return the input unchanged (fast path), a
// filtered copy, or nil when no row qualifies. The patch pointer, sought to
// the batch start so patches outside the scan ranges are skipped, yields the
// batch-relative offsets of the batch's patches in one call: for identifier
// sets it walks the id array (the merge strategy of the paper); for bitmap
// sets it scans the covered words, which subsumes the per-row lookup
// realization the paper describes. The rows then move with one typed call
// per column.
func (p *PatchSelect) applyMerge(b *vector.Batch) *vector.Batch {
	n := b.Len()
	p.probes += int64(n)
	keep := p.it.AppendBatch(p.keep.Idx[:0], b.BaseRow, n)
	p.keep.Idx = keep
	p.hits += int64(len(keep))
	switch p.mode {
	case ExcludePatches:
		if len(keep) == 0 {
			// No patch falls into this batch: pass it through untouched.
			return b
		}
		// Copy the runs between the patches: patches are sparse in the
		// exclude mode's typical regime, so nearly whole batches move with
		// a handful of range copies.
		p.out.Reset()
		for c, v := range b.Vecs {
			p.out.Vecs[c].AppendExcept(v, keep, n)
		}
		return p.out
	case UsePatches:
		if len(keep) == 0 {
			return nil
		}
		p.out.Reset()
		for c, v := range b.Vecs {
			p.out.Vecs[c].Gather(v, keep)
		}
		return p.out
	}
	return nil
}

// Close closes the child.
func (p *PatchSelect) Close() error {
	p.out = nil
	vector.PutSel(p.keep)
	p.keep = nil
	return p.child.Close()
}
