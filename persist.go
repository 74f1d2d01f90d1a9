// Durable storage, the engine's one persistence mode. With Config.DataDir
// set, table data lives in per-partition segment files under <DataDir>/segs,
// decoded payloads are budgeted by a clock cache, DDL and ingest are
// write-ahead logged, PatchIndex payloads are materialized under
// <DataDir>/idx, and CHECKPOINT flushes dirty partitions + writes the
// catalog manifest + rotates the WAL so restart replays only the suffix.
//
// Crash protocol: the manifest rename is the checkpoint's commit point. The
// manifest names both the segment generation and the WAL file carrying
// records after it, so recovery always pairs a consistent snapshot with
// exactly its suffix — a crash before the rename recovers from the previous
// pair, a crash after it from the new one. Superseded segment generations
// and WAL files are orphans swept by the next successful checkpoint, as are
// index files of indexes the manifest no longer lists. An index file is only
// a shortcut: recovery rediscovers an index whose file is missing, corrupt,
// or saved for another shape of its table.
package patchindex

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"patchindex/internal/catalog"
	"patchindex/internal/discovery"
	"patchindex/internal/patch"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
	"patchindex/internal/wal"
)

const manifestName = "MANIFEST.json"

// walLogRows bounds the rows per WAL data record so one record stays well
// under the replayer's 16 MiB corruption guard even for wide string columns.
const walLogRows = 8192

// RecoveryStats describes what the last engine open had to do to restore
// state — the crash-restart suite asserts a checkpointed reopen replays only
// the WAL suffix.
type RecoveryStats struct {
	ManifestTables  int           // tables restored lazily from segment files
	ManifestIndexes int           // index definitions restored from the manifest
	IndexFiles      int           // indexes loaded from idx/ instead of rediscovered
	ReplayedRecords int           // total WAL records replayed
	ReplayedAppends int           // data (ingest) records among them
	ReplayedRows    int64         // rows re-applied from the WAL suffix
	Duration        time.Duration // wall time of manifest load + replay
}

// CheckpointStats summarizes one checkpoint.
type CheckpointStats struct {
	Generation        uint64
	PartitionsFlushed int
	SegmentBytes      int64 // compressed payload bytes across flushed partitions
	Duration          time.Duration
}

// Recovery returns the stats of the restore performed when the engine
// opened (zero for non-durable engines).
func (e *Engine) Recovery() RecoveryStats { return e.recovery }

// Cache returns the engine's segment cache (nil unless durable mode).
func (e *Engine) Cache() *storage.Cache { return e.cache }

// durable reports whether the engine manages disk-backed segments.
func (e *Engine) durable() bool { return e.cfg.DataDir != "" }

func (e *Engine) segDir() string       { return filepath.Join(e.cfg.DataDir, "segs") }
func (e *Engine) idxDir() string       { return filepath.Join(e.cfg.DataDir, "idx") }
func (e *Engine) manifestPath() string { return filepath.Join(e.cfg.DataDir, manifestName) }

// spillDir resolves the operator spill directory: Config.SpillDir, else a
// spill/ dir inside DataDir (durable mode), else the OS temp dir ("").
func (e *Engine) spillDir() string {
	if e.cfg.SpillDir != "" {
		return e.cfg.SpillDir
	}
	if e.durable() {
		return filepath.Join(e.cfg.DataDir, "spill")
	}
	return ""
}

func walFileName(gen uint64) string { return fmt.Sprintf("wal.g%d.log", gen) }

func segFileName(table string, part int, gen uint64) string {
	return fmt.Sprintf("%s.p%d.g%d.seg", table, part, gen)
}

// AddTable registers a table built outside SQL, such as a generated demo
// dataset. Its rows never passed through the WAL, so a durable engine
// checkpoints at once: the table is in the manifest before any logged
// statement can refer to it.
func (e *Engine) AddTable(t *storage.Table) error {
	if err := e.cat.AddTable(t); err != nil || !e.durable() {
		return err
	}
	_, err := e.Checkpoint()
	return err
}

// indexPath names the materialization file of one index.
func (e *Engine) indexPath(table, column string, c patch.Constraint) string {
	return filepath.Join(e.idxDir(), fmt.Sprintf("%s.%s.%s.pidx", table, column, constraintTag(c)))
}

// openDataDir restores the engine from DataDir: manifest tables load lazily
// (payloads stay on disk behind the cache), manifest indexes restore from
// their materialized files or rediscovery, then the WAL suffix replays
// through the ordinary maintained-append path. Called from New before the
// engine is shared, so no latches are taken.
func (e *Engine) openDataDir() error {
	start := time.Now()
	for _, dir := range []string{e.segDir(), e.idxDir()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("patchindex: data dir: %w", err)
		}
	}
	if e.cfg.SpillBytes > 0 {
		if err := os.MkdirAll(e.spillDir(), 0o755); err != nil {
			return fmt.Errorf("patchindex: spill dir: %w", err)
		}
	}
	m, err := catalog.LoadManifest(e.manifestPath())
	if err != nil {
		return err
	}
	walFile := walFileName(0)
	if m != nil {
		e.gen = m.Generation
		if m.WALFile != "" {
			walFile = m.WALFile
		}
		for _, mt := range m.Tables {
			cols := make([]storage.Column, len(mt.Columns))
			for i, c := range mt.Columns {
				cols[i] = storage.Column{Name: c.Name, Typ: vector.Type(c.Typ)}
			}
			paths := make([]string, len(mt.Partitions))
			for i, p := range mt.Partitions {
				paths[i] = filepath.Join(e.cfg.DataDir, p.File)
			}
			t, err := storage.LoadTable(mt.Name, storage.NewSchema(cols...), mt.SortKey, paths, e.cache)
			if err != nil {
				return err
			}
			if err := e.cat.AddTable(t); err != nil {
				return err
			}
			e.recovery.ManifestTables++
		}
		for i := range m.Indexes {
			mi := &m.Indexes[i]
			rec := wal.CreateIndexRecord{
				Table:      mi.Table,
				Column:     mi.Column,
				Constraint: mi.Constraint,
				Kind:       mi.Kind,
				Threshold:  mi.Threshold,
				Descending: mi.Descending,
			}
			if err := e.restoreIndex(&rec); err != nil {
				return fmt.Errorf("patchindex: restoring index on %s.%s: %w", mi.Table, mi.Column, err)
			}
			e.recovery.ManifestIndexes++
		}
	}

	// The log opens for appends only after the suffix has replayed, so the
	// replayed statements do not log themselves a second time.
	log, err := wal.Resume(filepath.Join(e.cfg.DataDir, walFile), e.replayEntry)
	if err != nil {
		return err
	}
	log.SetMetrics(e.metrics)
	e.log = log
	e.recovery.Duration = time.Since(start)
	return nil
}

// restoreIndex re-creates a manifest or WAL index definition. It prefers
// the materialized file (Section V's alternative): loading the patches is
// O(|P_c|) instead of re-running discovery over the data.
func (e *Engine) restoreIndex(r *wal.CreateIndexRecord) error {
	t, err := e.cat.Table(r.Table)
	if err != nil {
		return err
	}
	c := patch.Constraint(r.Constraint)
	if ix, err := patch.Load(e.indexPath(r.Table, r.Column, c)); err == nil && materializedMatches(ix, t, r) {
		e.recovery.IndexFiles++
		return e.cat.AddIndex(ix)
	}
	ix, err := discovery.BuildIndex(t, r.Column, c, discovery.BuildOptions{
		Kind:        patch.Kind(r.Kind),
		Threshold:   r.Threshold,
		Descending:  r.Descending,
		Force:       true, // the threshold was already validated at creation
		Parallelism: e.effectiveParallelism(ExecOptions{}),
	})
	if err != nil {
		return err
	}
	return e.cat.AddIndex(ix)
}

// materializedMatches reports whether a loaded index file was saved for the
// definition being restored and for the current table shape (partition count
// and per-partition row counts).
func materializedMatches(ix *patch.Index, t *storage.Table, r *wal.CreateIndexRecord) bool {
	if ix.Descending() != r.Descending || ix.NumPartitions() != t.NumPartitions() {
		return false
	}
	for p := 0; p < t.NumPartitions(); p++ {
		set := ix.Partition(p)
		if set == nil || set.NumRows() != t.Partition(p).NumRows() {
			return false
		}
	}
	return true
}

// replayEntry applies one record of the post-checkpoint WAL suffix.
func (e *Engine) replayEntry(entry wal.Entry) error {
	e.recovery.ReplayedRecords++
	switch entry.Kind {
	case wal.RecordCreateIndex:
		r := entry.Create
		if e.cat.Lookup(r.Table, r.Column, patch.Constraint(r.Constraint)) != nil {
			return nil
		}
		return e.restoreIndex(r)
	case wal.RecordDropIndex:
		r := entry.Drop
		if e.cat.Index(r.Table, r.Column) == nil {
			return nil
		}
		return e.cat.DropIndex(r.Table, r.Column)
	case wal.RecordCreateTable:
		r := entry.CreateTable
		if t, _ := e.cat.Table(r.Table); t != nil {
			return nil
		}
		cols := make([]storage.Column, len(r.ColNames))
		for i, name := range r.ColNames {
			cols[i] = storage.Column{Name: name, Typ: vector.Type(r.ColTypes[i])}
		}
		t, err := storage.NewTable(r.Table, storage.NewSchema(cols...), int(r.Partitions))
		if err != nil {
			return err
		}
		if r.SortKey != "" {
			if err := t.SetSortKey(r.SortKey); err != nil {
				return err
			}
		}
		t.AttachCache(e.cache)
		return e.cat.AddTable(t)
	case wal.RecordDropTable:
		r := entry.DropTable
		t, err := e.cat.Table(r.Table)
		if err != nil {
			return nil // already gone
		}
		if err := e.cat.DropTable(r.Table); err != nil {
			return err
		}
		t.ReleaseStorage()
		return nil
	case wal.RecordAppend:
		r := entry.Append
		cols, _, err := vector.DecodeColumns(r.Cols)
		if err != nil {
			return fmt.Errorf("patchindex: replay append into %s: %w", r.Table, err)
		}
		e.recovery.ReplayedAppends++
		if len(cols) > 0 {
			e.recovery.ReplayedRows += int64(cols[0].Len())
		}
		return e.appendLatched(r.Table, int(r.Partition), cols)
	default:
		return nil
	}
}

// logAppend write-ahead logs an ingest batch, chunked so any single record
// stays within the replayer's framing guard. No-op outside durable mode and
// during replay.
func (e *Engine) logAppend(table string, part int, cols []*vector.Vector) error {
	if e.log == nil {
		return nil
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	for lo := 0; lo < n || lo == 0; lo += walLogRows {
		hi := lo + walLogRows
		if hi > n {
			hi = n
		}
		chunk := cols
		if lo != 0 || hi != n {
			chunk = make([]*vector.Vector, len(cols))
			for i, v := range cols {
				c := vector.New(v.Typ, hi-lo)
				c.AppendRange(v, lo, hi)
				chunk[i] = c
			}
		}
		rec := wal.AppendRecord{
			Table:     table,
			Partition: uint32(part),
			Cols:      vector.AppendColumnsBinary(nil, chunk),
		}
		if err := e.log.AppendData(rec); err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	return nil
}

// logCreateTable write-ahead logs a CREATE TABLE in durable mode.
func (e *Engine) logCreateTable(t *storage.Table, partitions int) error {
	if e.log == nil {
		return nil
	}
	schema := t.Schema()
	rec := wal.CreateTableRecord{
		Table:      t.Name(),
		SortKey:    t.SortKey(),
		Partitions: uint32(partitions),
	}
	for _, c := range schema.Columns {
		rec.ColNames = append(rec.ColNames, c.Name)
		rec.ColTypes = append(rec.ColTypes, uint8(c.Typ))
	}
	return e.log.AppendCreateTable(rec)
}

// sortedHints marks the columns of a table that an index or declared sort
// key proves (nearly) sorted — those compress with PFOR-DELTA without
// trying plain PFOR first.
func (e *Engine) sortedHints(t *storage.Table) []bool {
	schema := t.Schema()
	hints := make([]bool, len(schema.Columns))
	for i, c := range schema.Columns {
		if t.SortKey() == c.Name {
			hints[i] = true
			continue
		}
		if ix := e.cat.IndexFor(t.Name(), c.Name, patch.NearlySorted); ix != nil && !ix.Descending() {
			hints[i] = true
		}
	}
	return hints
}

// Checkpoint flushes every dirty partition to a new segment generation,
// writes the catalog manifest (the atomic commit point), rotates the WAL,
// and sweeps orphaned files. It takes exclusive latches on all tables, so
// it serializes against every statement — callers should run it from a
// maintenance cadence, not a query path.
func (e *Engine) Checkpoint() (CheckpointStats, error) {
	if !e.durable() {
		return CheckpointStats{}, fmt.Errorf("patchindex: CHECKPOINT requires a durable engine (Config.DataDir)")
	}
	e.checkpointMu.Lock()
	defer e.checkpointMu.Unlock()
	start := time.Now()
	names := e.cat.TableNames()
	release := e.acquireLatches(nil, names)
	defer release()

	gen := e.gen + 1
	stats := CheckpointStats{Generation: gen}
	m := &catalog.Manifest{Version: 1, Generation: gen, WALFile: walFileName(gen)}
	for _, name := range names {
		t, err := e.cat.Table(name)
		if err != nil {
			continue // dropped between TableNames and here — impossible under latches, defensive
		}
		if !t.CacheAttached() {
			t.AttachCache(e.cache)
		}
		hints := e.sortedHints(t)
		mt := catalog.ManifestTable{Name: name, SortKey: t.SortKey()}
		for _, c := range t.Schema().Columns {
			mt.Columns = append(mt.Columns, catalog.ManifestColumn{Name: c.Name, Typ: uint8(c.Typ)})
		}
		for p := 0; p < t.NumPartitions(); p++ {
			path := t.SegmentPath(p)
			if t.Dirty(p) {
				path = filepath.Join(e.segDir(), segFileName(name, p, gen))
				bytes, err := t.FlushPartition(p, path, hints)
				if err != nil {
					return stats, err
				}
				stats.PartitionsFlushed++
				stats.SegmentBytes += bytes
			}
			rel, err := filepath.Rel(e.cfg.DataDir, path)
			if err != nil {
				rel = path
			}
			mt.Partitions = append(mt.Partitions, catalog.ManifestPartition{File: rel, Rows: t.Partition(p).NumRows()})
		}
		m.Tables = append(m.Tables, mt)
	}
	for _, ix := range e.cat.Indexes() {
		m.Indexes = append(m.Indexes, catalog.ManifestIndex{
			Table:      ix.Table(),
			Column:     ix.Column(),
			Constraint: uint8(ix.Constraint()),
			Kind:       uint8(ix.RequestedKind()),
			Threshold:  ix.Threshold(),
			Descending: ix.Descending(),
		})
	}

	// Open the next WAL generation before committing the manifest that
	// references it, so the manifest never points at a missing file.
	newWALPath := filepath.Join(e.cfg.DataDir, walFileName(gen))
	newLog, err := wal.Open(newWALPath)
	if err != nil {
		return stats, err
	}
	newLog.SetMetrics(e.metrics)
	if err := catalog.SaveManifest(e.manifestPath(), m); err != nil {
		newLog.Close()
		os.Remove(newWALPath)
		return stats, err
	}
	// Commit point passed: swap logs and sweep orphans.
	oldLog := e.log
	e.log, e.gen = newLog, gen
	oldLog.Close()
	if oldLog.Path() != newWALPath {
		os.Remove(oldLog.Path())
	}
	e.sweepOrphans(m)
	stats.Duration = time.Since(start)
	e.metrics.Counter("checkpoints_total").Inc()
	e.metrics.Histogram("checkpoint_nanos").Observe(stats.Duration)
	e.metrics.Gauge("storage_segment_bytes").Set(e.totalSegmentBytes())
	return stats, nil
}

// totalSegmentBytes sums compressed on-disk payloads across tables.
func (e *Engine) totalSegmentBytes() int64 {
	var total int64
	for _, name := range e.cat.TableNames() {
		if t, err := e.cat.Table(name); err == nil {
			total += t.CompressedBytes()
		}
	}
	return total
}

// sweepOrphans removes segment files, index files and WAL generations the
// manifest no longer references. Failures are ignored — orphans are garbage,
// not state.
func (e *Engine) sweepOrphans(m *catalog.Manifest) {
	live := map[string]bool{}
	for _, t := range m.Tables {
		for _, p := range t.Partitions {
			live[filepath.Base(p.File)] = true
		}
	}
	for _, ix := range m.Indexes {
		live[filepath.Base(e.indexPath(ix.Table, ix.Column, patch.Constraint(ix.Constraint)))] = true
	}
	for dir, suffix := range map[string]string{e.segDir(): ".seg", e.idxDir(): ".pidx"} {
		entries, _ := os.ReadDir(dir)
		for _, ent := range entries {
			name := ent.Name()
			if strings.HasSuffix(name, suffix) && !live[name] {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
	if entries, err := os.ReadDir(e.cfg.DataDir); err == nil {
		for _, ent := range entries {
			name := ent.Name()
			if strings.HasPrefix(name, "wal.g") && strings.HasSuffix(name, ".log") && name != m.WALFile {
				os.Remove(filepath.Join(e.cfg.DataDir, name))
			}
		}
	}
}

// runCheckpoint is the CHECKPOINT statement.
func (e *Engine) runCheckpoint() (*Result, error) {
	stats, err := e.Checkpoint()
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf(
		"checkpoint g%d: %d partitions flushed, %d segment bytes, wal rotated (%.1fms)",
		stats.Generation, stats.PartitionsFlushed, stats.SegmentBytes,
		float64(stats.Duration.Microseconds())/1000)}, nil
}

// StartCheckpointer runs Checkpoint on a fixed cadence until the returned
// stop func is called. Errors are reported to the slow-query log (the
// engine's operational channel) and do not stop the loop.
func (e *Engine) StartCheckpointer(interval time.Duration) (stop func()) {
	if interval <= 0 || !e.durable() {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, err := e.Checkpoint(); err != nil {
					e.logf("checkpoint error: %v\n", err)
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
