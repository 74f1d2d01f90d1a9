package exec

import (
	"context"
	"fmt"

	"patchindex/internal/compress"
	"patchindex/internal/obs"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// Scan reads one partition of a table, restricted to a set of scan ranges,
// projecting a subset of columns. Its batches are contiguous in row-id order
// and carry BaseRow, which is what allows PatchSelect to be placed directly
// on top without materializing a tuple-identifier column (Section VI-A1).
type Scan struct {
	opStats
	table  *storage.Table
	part   int
	cols   []int
	ranges []storage.ScanRange
	types  []vector.Type

	rangeIdx int
	pos      uint64
	src      []*vector.Vector
	out      *vector.Batch    // reused output batch header
	views    []*vector.Vector // reused per-column slice headers
	pruned   int64            // rows of the partition skipped by the scan ranges

	// Durable-mode state. releases unpins cached columns at Close. For
	// cold selective scans (column evicted + ranges cover a small fraction)
	// encs[i] holds the compressed payload and batches decode from it into
	// scratch[i] without charging the cache; scratchLo/scratchHi is the
	// decoded row window.
	releases  []func()
	encs      []*compress.Encoded
	scratch   []*vector.Vector
	scratchLo uint64
	scratchHi uint64
	coldRows  int64 // rows served via decode-from-compressed
}

// coldScanMaxFraction: a column on disk is scanned straight from its
// compressed payload (bypassing the cache) when the pruned ranges cover at
// most 1/4 of the partition — below that, decoding only the touched blocks
// beats materializing (and possibly evicting someone else for) the full
// column.
const coldScanMaxFraction = 4

// coldScanChunk bounds how many rows one scratch refill decodes, amortizing
// per-range block seeks without materializing huge ranges.
const coldScanChunk = 64 * 1024

// NewScan creates a scan over partition part of table, projecting the given
// column positions. If ranges is nil the full partition is scanned.
func NewScan(table *storage.Table, part int, cols []int, ranges []storage.ScanRange) (*Scan, error) {
	if part < 0 || part >= table.NumPartitions() {
		return nil, fmt.Errorf("exec: scan %s: partition %d out of range", table.Name(), part)
	}
	schema := table.Schema()
	types := make([]vector.Type, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(schema.Columns) {
			return nil, fmt.Errorf("exec: scan %s: column %d out of range", table.Name(), c)
		}
		types[i] = schema.Columns[c].Typ
	}
	if ranges == nil {
		ranges = table.FullRange(part)
	}
	for i, r := range ranges {
		if r.Start > r.End {
			return nil, fmt.Errorf("exec: scan %s: invalid range [%d,%d)", table.Name(), r.Start, r.End)
		}
		if i > 0 && ranges[i-1].End > r.Start {
			return nil, fmt.Errorf("exec: scan %s: ranges overlap or are unordered", table.Name())
		}
	}
	s := &Scan{table: table, part: part, cols: cols, ranges: ranges, types: types}
	covered := int64(0)
	for _, r := range ranges {
		covered += int64(r.End - r.Start)
	}
	s.stats.EstRows = covered // exact for a range-restricted scan
	s.pruned = int64(table.Partition(part).NumRows()) - covered
	return s, nil
}

// Name returns the operator name.
func (s *Scan) Name() string { return fmt.Sprintf("Scan(%s.p%d)", s.table.Name(), s.part) }

// Types returns the projected column types.
func (s *Scan) Types() []vector.Type { return s.types }

// Ranges exposes the scan ranges so PatchSelect can merge them with patches.
func (s *Scan) Ranges() []storage.ScanRange { return s.ranges }

// Partition returns the scanned partition id.
func (s *Scan) Partition() int { return s.part }

// Table returns the scanned table.
func (s *Scan) Table() *storage.Table { return s.table }

// Open captures the column vectors of the partition. Under a cache, resident
// columns are pinned for the scan's lifetime; evicted columns of a selective
// scan decode from the compressed segment payload instead of being faulted
// in whole.
func (s *Scan) Open(ctx context.Context) error {
	s.bindCtx(ctx)
	p := s.table.Partition(s.part)
	s.src = make([]*vector.Vector, len(s.cols))
	s.encs = nil
	s.scratch = nil
	covered := uint64(0)
	for _, r := range s.ranges {
		covered += r.Len()
	}
	selective := covered > 0 && covered*coldScanMaxFraction < uint64(p.NumRows())
	for i, c := range s.cols {
		if s.table.CacheAttached() && selective && s.table.ColumnOnDisk(s.part, c) {
			if store := s.table.OpenSegment(s.part); store != nil {
				enc, err := store.ReadColumn(c)
				if err != nil {
					return errOp(s, err)
				}
				if s.encs == nil {
					s.encs = make([]*compress.Encoded, len(s.cols))
					s.scratch = make([]*vector.Vector, len(s.cols))
				}
				s.encs[i] = enc
				s.scratch[i] = vector.New(s.types[i], 0)
				continue
			}
		}
		v, release, err := s.table.PinColumn(s.part, c)
		if err != nil {
			return errOp(s, err)
		}
		s.src[i] = v
		s.releases = append(s.releases, release)
	}
	s.scratchLo, s.scratchHi = 0, 0
	s.views = make([]*vector.Vector, len(s.cols))
	s.out = &vector.Batch{Vecs: make([]*vector.Vector, len(s.cols))}
	for i := range s.views {
		s.views[i] = &vector.Vector{}
		s.out.Vecs[i] = s.views[i]
	}
	s.rangeIdx = 0
	if len(s.ranges) > 0 {
		s.pos = s.ranges[0].Start
	}
	return nil
}

// Children returns no inputs; Scan is a leaf.
func (s *Scan) Children() []Operator { return nil }

// ExtraStats reports rows skipped via SMA range pruning and rows decoded
// straight from compressed payloads.
func (s *Scan) ExtraStats() []obs.KV {
	var kv []obs.KV
	if s.pruned > 0 {
		kv = append(kv, obs.KV{Key: "pruned_rows", Value: s.pruned})
	}
	if s.coldRows > 0 {
		kv = append(kv, obs.KV{Key: "cold_decoded_rows", Value: s.coldRows})
	}
	return kv
}

// Next emits up to BatchSize contiguous rows from the current range.
func (s *Scan) Next() (*vector.Batch, error) {
	return s.nextBatch(s.next)
}

func (s *Scan) next() (*vector.Batch, error) {
	for {
		if s.rangeIdx >= len(s.ranges) {
			return nil, nil
		}
		r := s.ranges[s.rangeIdx]
		if s.pos >= r.End {
			s.rangeIdx++
			if s.rangeIdx < len(s.ranges) {
				s.pos = s.ranges[s.rangeIdx].Start
			}
			continue
		}
		end := s.pos + vector.BatchSize
		if end > r.End {
			end = r.End
		}
		if s.encs != nil && (s.pos < s.scratchLo || end > s.scratchHi) {
			if err := s.refillScratch(r, s.pos); err != nil {
				return nil, errOp(s, err)
			}
		}
		// Reuse the batch and per-column slice headers across Next calls; the
		// batch contract (valid until the next Next) makes this safe.
		s.out.BaseRow, s.out.Contiguous, s.out.Sel = s.pos, true, nil
		for i, v := range s.src {
			if v == nil {
				// Cold column: the scratch window holds [scratchLo,scratchHi).
				s.scratch[i].SliceInto(s.views[i], int(s.pos-s.scratchLo), int(end-s.scratchLo))
				continue
			}
			v.SliceInto(s.views[i], int(s.pos), int(end))
		}
		s.pos = end
		return s.out, nil
	}
}

// refillScratch decodes the window [from, min(r.End, from+coldScanChunk))
// of every cold column from its compressed payload.
func (s *Scan) refillScratch(r storage.ScanRange, from uint64) error {
	hi := from + coldScanChunk
	if hi > r.End {
		hi = r.End
	}
	for i, enc := range s.encs {
		if enc == nil {
			continue
		}
		s.scratch[i].Reset()
		if err := enc.DecodeRangeInto(s.scratch[i], int(from), int(hi)); err != nil {
			return err
		}
	}
	s.scratchLo, s.scratchHi = from, hi
	s.coldRows += int64(hi - from)
	return nil
}

// Close unpins cached columns and releases the captured vectors.
func (s *Scan) Close() error {
	for _, rel := range s.releases {
		rel()
	}
	s.releases = nil
	s.src = nil
	s.encs = nil
	s.scratch = nil
	s.out = nil
	s.views = nil
	return nil
}
