// Package wal implements the write-ahead log of a durable engine's data
// directory: table DDL, ingest batches and PatchIndex definitions since the
// last checkpoint. Following Section V of the paper, an index *creation* is
// logged without its determined patches, keeping the log slim; on replay the
// index is reconstructed from the data using the same discovery mechanisms
// as at creation time.
//
// Record format (little endian):
//
//	magic   uint32  0x50574c31 ("PWL1")
//	kind    uint8
//	length  uint32  payload bytes
//	payload []byte
//	crc32   uint32  IEEE, over kind+length+payload
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"patchindex/internal/obs"
)

const magic uint32 = 0x50574c31

// RecordKind tags the type of a WAL record.
type RecordKind uint8

const (
	// RecordCreateIndex logs a PatchIndex creation.
	RecordCreateIndex RecordKind = iota + 1
	// RecordDropIndex logs a PatchIndex drop.
	RecordDropIndex
	// RecordCreateTable logs a table creation.
	RecordCreateTable
	// RecordDropTable logs a table drop.
	RecordDropTable
	// RecordAppend logs an ingest batch: whole column vectors bound for one
	// partition. Checkpoints rotate the log, so it holds just the suffix since
	// the last checkpoint.
	RecordAppend
)

// CreateIndexRecord is the payload of a RecordCreateIndex entry.
type CreateIndexRecord struct {
	Table      string
	Column     string
	Constraint uint8 // patch.Constraint
	Kind       uint8 // patch.Kind as requested (may be Auto)
	Threshold  float64
	Descending bool
}

// DropIndexRecord is the payload of a RecordDropIndex entry.
type DropIndexRecord struct {
	Table  string
	Column string
}

// CreateTableRecord is the payload of a RecordCreateTable entry.
type CreateTableRecord struct {
	Table      string
	ColNames   []string
	ColTypes   []uint8 // vector.Type
	Partitions uint32
	SortKey    string
}

// DropTableRecord is the payload of a RecordDropTable entry.
type DropTableRecord struct {
	Table string
}

// AppendRecord is the payload of a RecordAppend entry. Cols is the raw
// column-list image in the vector codec's binary format; the engine decodes
// it with vector.DecodeColumns so the wal package stays ignorant of vector
// internals.
type AppendRecord struct {
	Table     string
	Partition uint32
	Cols      []byte
}

// ErrCorrupt reports a CRC or framing failure during replay.
var ErrCorrupt = errors.New("wal: corrupt record")

// Log is an append-only write-ahead log backed by a file.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string

	// Optional metrics (nil-safe: an unwired log records nothing).
	appends     *obs.Counter
	appendNanos *obs.Histogram
	syncNanos   *obs.Histogram
}

// SetMetrics wires append/sync latency metrics into the given registry.
func (l *Log) SetMetrics(r *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appends = r.Counter("wal_appends_total")
	l.appendNanos = r.Histogram("wal_append_nanos")
	l.syncNanos = r.Histogram("wal_sync_nanos")
}

// Open opens (or creates) the log at path.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	return &Log{f: f, path: path}, nil
}

// Path returns the log file path.
func (l *Log) Path() string { return l.path }

// Close syncs and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// AppendCreateIndex logs a PatchIndex creation and syncs.
func (l *Log) AppendCreateIndex(r CreateIndexRecord) error {
	var buf bytes.Buffer
	writeString(&buf, r.Table)
	writeString(&buf, r.Column)
	buf.WriteByte(r.Constraint)
	buf.WriteByte(r.Kind)
	var th [8]byte
	binary.LittleEndian.PutUint64(th[:], uint64FromFloat(r.Threshold))
	buf.Write(th[:])
	if r.Descending {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	return l.append(RecordCreateIndex, buf.Bytes())
}

// AppendDropIndex logs a PatchIndex drop and syncs.
func (l *Log) AppendDropIndex(r DropIndexRecord) error {
	var buf bytes.Buffer
	writeString(&buf, r.Table)
	writeString(&buf, r.Column)
	return l.append(RecordDropIndex, buf.Bytes())
}

// AppendCreateTable logs a table creation and syncs.
func (l *Log) AppendCreateTable(r CreateTableRecord) error {
	var buf bytes.Buffer
	writeString(&buf, r.Table)
	writeString(&buf, r.SortKey)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], r.Partitions)
	buf.Write(n[:])
	binary.LittleEndian.PutUint32(n[:], uint32(len(r.ColNames)))
	buf.Write(n[:])
	for i, name := range r.ColNames {
		writeString(&buf, name)
		buf.WriteByte(r.ColTypes[i])
	}
	return l.append(RecordCreateTable, buf.Bytes())
}

// AppendDropTable logs a table drop and syncs.
func (l *Log) AppendDropTable(r DropTableRecord) error {
	var buf bytes.Buffer
	writeString(&buf, r.Table)
	return l.append(RecordDropTable, buf.Bytes())
}

// AppendData logs an ingest batch and syncs.
func (l *Log) AppendData(r AppendRecord) error {
	var buf bytes.Buffer
	writeString(&buf, r.Table)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], r.Partition)
	buf.Write(n[:])
	buf.Write(r.Cols)
	return l.append(RecordAppend, buf.Bytes())
}

func (l *Log) append(kind RecordKind, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	l.appends.Inc()
	start := time.Now()
	defer l.appendNanos.ObserveSince(start)
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	hdr[4] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:9])
	crc.Write(payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.f.Write(tail[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	syncStart := time.Now()
	err := l.f.Sync()
	l.syncNanos.ObserveSince(syncStart)
	return err
}

// Entry is one decoded WAL record.
type Entry struct {
	Kind        RecordKind
	Create      *CreateIndexRecord
	Drop        *DropIndexRecord
	CreateTable *CreateTableRecord
	DropTable   *DropTableRecord
	Append      *AppendRecord
}

// Replay reads the log at path from the beginning and invokes fn for every
// intact record. A truncated trailing record (torn write) ends the replay
// without error; a CRC mismatch in the middle returns ErrCorrupt.
func Replay(path string, fn func(Entry) error) error {
	_, err := replay(path, fn)
	return err
}

// Resume replays the log at path like Replay, cuts off a torn trailing
// record, and opens the log for appending. Without the cut, the next record
// would land behind the torn bytes, and the replay after that would read it
// as the torn record's payload.
func Resume(path string, fn func(Entry) error) (*Log, error) {
	end, err := replay(path, fn)
	if err != nil {
		return nil, err
	}
	l, err := Open(path)
	if err != nil {
		return nil, err
	}
	if err := l.f.Truncate(end); err != nil {
		l.Close()
		return nil, fmt.Errorf("wal: cutting torn tail: %w", err)
	}
	return l, nil
}

// replay is Replay returning the byte offset where the intact records end.
func replay(path string, fn func(Entry) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var end int64
	// torn reports a read that hit the end of the file mid-record.
	torn := func(err error) bool { return err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) }
	for {
		var hdr [9]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if torn(err) {
				return end, nil // clean end or torn header
			}
			return end, fmt.Errorf("wal: replay: %w", err)
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != magic {
			return end, fmt.Errorf("%w: bad magic", ErrCorrupt)
		}
		kind := RecordKind(hdr[4])
		n := binary.LittleEndian.Uint32(hdr[5:9])
		if n > 1<<24 {
			return end, fmt.Errorf("%w: oversized record (%d bytes)", ErrCorrupt, n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if torn(err) {
				return end, nil // torn payload
			}
			return end, fmt.Errorf("wal: replay: %w", err)
		}
		var tail [4]byte
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			if torn(err) {
				return end, nil // torn crc
			}
			return end, fmt.Errorf("wal: replay: %w", err)
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[4:9])
		crc.Write(payload)
		if crc.Sum32() != binary.LittleEndian.Uint32(tail[:]) {
			return end, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
		}
		entry, err := decode(kind, payload)
		if err != nil {
			return end, err
		}
		if err := fn(entry); err != nil {
			return end, err
		}
		end += int64(len(hdr)) + int64(n) + int64(len(tail))
	}
}

func decode(kind RecordKind, payload []byte) (Entry, error) {
	buf := bytes.NewReader(payload)
	switch kind {
	case RecordCreateIndex:
		var rec CreateIndexRecord
		var err error
		if rec.Table, err = readString(buf); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if rec.Column, err = readString(buf); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		var b [10]byte
		if _, err := io.ReadFull(buf, b[:]); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		rec.Constraint = b[0]
		rec.Kind = b[1]
		rec.Threshold = floatFromUint64(binary.LittleEndian.Uint64(b[2:10]))
		db, err := buf.ReadByte()
		if err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		rec.Descending = db == 1
		return Entry{Kind: kind, Create: &rec}, nil
	case RecordDropIndex:
		var rec DropIndexRecord
		var err error
		if rec.Table, err = readString(buf); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if rec.Column, err = readString(buf); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return Entry{Kind: kind, Drop: &rec}, nil
	case RecordCreateTable:
		var rec CreateTableRecord
		var err error
		if rec.Table, err = readString(buf); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if rec.SortKey, err = readString(buf); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		var b [8]byte
		if _, err := io.ReadFull(buf, b[:]); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		rec.Partitions = binary.LittleEndian.Uint32(b[0:4])
		ncols := binary.LittleEndian.Uint32(b[4:8])
		if ncols > 1<<16 {
			return Entry{}, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, ncols)
		}
		for i := uint32(0); i < ncols; i++ {
			name, err := readString(buf)
			if err != nil {
				return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			typ, err := buf.ReadByte()
			if err != nil {
				return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			rec.ColNames = append(rec.ColNames, name)
			rec.ColTypes = append(rec.ColTypes, typ)
		}
		return Entry{Kind: kind, CreateTable: &rec}, nil
	case RecordDropTable:
		var rec DropTableRecord
		var err error
		if rec.Table, err = readString(buf); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return Entry{Kind: kind, DropTable: &rec}, nil
	case RecordAppend:
		var rec AppendRecord
		var err error
		if rec.Table, err = readString(buf); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		var b [4]byte
		if _, err := io.ReadFull(buf, b[:]); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		rec.Partition = binary.LittleEndian.Uint32(b[:])
		rec.Cols = make([]byte, buf.Len())
		if _, err := io.ReadFull(buf, rec.Cols); err != nil {
			return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return Entry{Kind: kind, Append: &rec}, nil
	default:
		return Entry{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
}

func writeString(buf *bytes.Buffer, s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	buf.Write(n[:])
	buf.WriteString(s)
}

func readString(r *bytes.Reader) (string, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return "", err
	}
	ln := binary.LittleEndian.Uint32(n[:])
	if ln > 1<<20 {
		return "", fmt.Errorf("string too long (%d)", ln)
	}
	b := make([]byte, ln)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func uint64FromFloat(f float64) uint64 { return math.Float64bits(f) }

func floatFromUint64(u uint64) float64 { return math.Float64frombits(u) }
