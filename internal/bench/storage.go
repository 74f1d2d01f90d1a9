package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/vector"
)

// Storage measures the disk-backed segment layer end to end: durable ingest,
// checkpoint cost and compression ratio, cold vs warm vs all-resident scan
// latency across a restart, and restart time with vs without a checkpoint
// (WAL-suffix replay vs full-history replay). No paper counterpart — this is
// the engine's own storage evaluation.
func Storage(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "== storage: segments, cache, checkpoint, restart (%d rows, %d partitions) ==\n",
		cfg.Rows, cfg.Partitions)

	dir, err := os.MkdirTemp("", "patchbench-storage-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	src, err := datagen.LoadCustom("data", cfg.Rows, cfg.Partitions, 0.05, 0.05, cfg.Seed)
	if err != nil {
		return err
	}
	newDurable := func(dataDir string, cacheBytes int64) (*patchindex.Engine, error) {
		return patchindex.New(patchindex.Config{
			DataDir:           dataDir,
			CacheBytes:        cacheBytes,
			DefaultPartitions: cfg.Partitions,
			Parallelism:       cfg.Parallelism,
			Metrics:           cfg.Metrics,
		})
	}
	ingest := func(e *patchindex.Engine) error {
		if _, err := e.Exec("CREATE TABLE data (u BIGINT, s BIGINT, payload BIGINT)"); err != nil {
			return err
		}
		for p := 0; p < src.NumPartitions(); p++ {
			cols := make([]*vector.Vector, 3)
			for c := range cols {
				v, release, err := src.PinColumn(p, c)
				if err != nil {
					return err
				}
				release() // src has no cache: direct reference, nothing pinned
				cols[c] = v
			}
			if err := e.LoadColumns("data", p, cols); err != nil {
				return err
			}
		}
		return nil
	}

	fullQ := "SELECT COUNT(*), SUM(u) FROM data"
	selQ := fmt.Sprintf("SELECT COUNT(*) FROM data WHERE s < %d", cfg.Rows/20)
	drain := func(e *patchindex.Engine, q string) (time.Duration, error) {
		start := time.Now()
		_, err := e.Exec(q)
		return time.Since(start), err
	}

	// Ingest + checkpoint on the primary data dir.
	e, err := newDurable(dir, 0)
	if err != nil {
		return err
	}
	ingestStart := time.Now()
	if err := ingest(e); err != nil {
		e.Close()
		return err
	}
	ingestTime := time.Since(ingestStart)
	ck, err := e.Checkpoint()
	if err != nil {
		e.Close()
		return err
	}
	tab, err := e.Catalog().Table("data")
	if err != nil {
		e.Close()
		return err
	}
	raw, compressed := tab.RawBytes(), tab.CompressedBytes()
	ratio := 0.0
	if compressed > 0 {
		ratio = float64(raw) / float64(compressed)
	}
	residentFull, err := median(cfg.Reps, func() error { _, err := e.Exec(fullQ); return err })
	if err != nil {
		e.Close()
		return err
	}
	if err := e.Close(); err != nil {
		return err
	}

	// Restart from the checkpoint: manifest + lazy segments, WAL suffix empty.
	restartStart := time.Now()
	e2, err := newDurable(dir, 0)
	if err != nil {
		return err
	}
	restartCkpt := time.Since(restartStart)
	recCkpt := e2.Recovery()
	coldSel, err := drain(e2, selQ) // cold + selective: decode-from-compressed path
	if err != nil {
		e2.Close()
		return err
	}
	coldFull, err := drain(e2, fullQ) // cold full scan: faults everything in
	if err != nil {
		e2.Close()
		return err
	}
	warmFull, err := median(cfg.Reps, func() error { _, err := e2.Exec(fullQ); return err })
	if err != nil {
		e2.Close()
		return err
	}
	cacheStats := e2.Cache().Stats()
	if err := e2.Close(); err != nil {
		return err
	}

	// Restart without a checkpoint: the whole history replays from the WAL.
	dir2, err := os.MkdirTemp("", "patchbench-storage-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir2)
	e3, err := newDurable(dir2, 0)
	if err != nil {
		return err
	}
	if err := ingest(e3); err != nil {
		e3.Close()
		return err
	}
	if err := e3.Close(); err != nil {
		return err
	}
	restartStart = time.Now()
	e4, err := newDurable(dir2, 0)
	if err != nil {
		return err
	}
	restartWAL := time.Since(restartStart)
	recWAL := e4.Recovery()
	if err := e4.Close(); err != nil {
		return err
	}

	fmt.Fprintf(w, "%-34s %12s\n", "ingest (logged)", ingestTime.Round(time.Millisecond))
	fmt.Fprintf(w, "%-34s %12s  (%d partitions, %s on disk)\n", "checkpoint",
		ck.Duration.Round(time.Millisecond), ck.PartitionsFlushed, fmtMB(int(ck.SegmentBytes)))
	fmt.Fprintf(w, "%-34s %12.2fx  (%s raw / %s compressed)\n", "compression ratio", ratio,
		fmtMB(int(raw)), fmtMB(int(compressed)))
	fmt.Fprintf(w, "%-34s %12s\n", "scan full, all-resident", residentFull.Round(time.Millisecond))
	fmt.Fprintf(w, "%-34s %12s\n", "scan selective, cold (from disk)", coldSel.Round(time.Millisecond))
	fmt.Fprintf(w, "%-34s %12s\n", "scan full, cold (fault-in)", coldFull.Round(time.Millisecond))
	fmt.Fprintf(w, "%-34s %12s\n", "scan full, warm (cached)", warmFull.Round(time.Millisecond))
	fmt.Fprintf(w, "%-34s %12s  (replayed %d rows)\n", "restart with checkpoint",
		restartCkpt.Round(time.Millisecond), recCkpt.ReplayedRows)
	fmt.Fprintf(w, "%-34s %12s  (replayed %d rows)\n", "restart WAL-only",
		restartWAL.Round(time.Millisecond), recWAL.ReplayedRows)
	fmt.Fprintf(w, "cache: hits=%d misses=%d evictions=%d resident=%s\n",
		cacheStats.Hits, cacheStats.Misses, cacheStats.Evictions, fmtMB(int(cacheStats.ResidentBytes)))

	cfg.record(ExpStorage, "ingest", 0, ms(ingestTime), "ms")
	cfg.record(ExpStorage, "checkpoint", 0, ms(ck.Duration), "ms")
	cfg.record(ExpStorage, "segment_bytes", 0, float64(ck.SegmentBytes), "bytes")
	cfg.record(ExpStorage, "compression_ratio", 0, ratio, "x")
	cfg.record(ExpStorage, "scan_full/resident", 0, ms(residentFull), "ms")
	cfg.record(ExpStorage, "scan_selective/cold", 0, ms(coldSel), "ms")
	cfg.record(ExpStorage, "scan_full/cold", 0, ms(coldFull), "ms")
	cfg.record(ExpStorage, "scan_full/warm", 0, ms(warmFull), "ms")
	cfg.record(ExpStorage, "restart/checkpoint", 0, ms(restartCkpt), "ms")
	cfg.record(ExpStorage, "restart/wal_only", 0, ms(restartWAL), "ms")
	return nil
}
