// Operator spilling. Pipeline breakers (Sort, HashJoin's build side) bound
// their in-memory working set with a SpillConfig: past the limit, batches
// move to temp files in the vector binary codec and stream back for an
// external merge (Sort) or a Grace-style partitioned join (HashJoin). Spill
// files are unlinked as soon as they are closed; a crash leaves at most the
// current statement's temp files behind.
package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"patchindex/internal/vector"
)

// SpillConfig bounds an operator's in-memory working set. Limit <= 0
// disables spilling (the pre-spill behavior: everything materializes in
// memory). Dir empty means os.TempDir().
type SpillConfig struct {
	Dir   string
	Limit int64
}

func (c SpillConfig) enabled() bool { return c.Limit > 0 }

// spillFile accumulates column batches into a temp file. Frames are
// length-prefixed vector.AppendColumnsBinary images.
type spillFile struct {
	f     *os.File
	w     *bufio.Writer
	buf   []byte
	rows  int64
	bytes int64
}

func newSpillFile(dir string) (*spillFile, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "patchspill-*.run")
	if err != nil {
		return nil, fmt.Errorf("exec: spill: %w", err)
	}
	return &spillFile{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// writeCols appends one frame. All vectors must have equal length.
func (s *spillFile) writeCols(cols []*vector.Vector) error {
	if len(cols) == 0 || cols[0].Len() == 0 {
		return nil
	}
	s.buf = vector.AppendColumnsBinary(s.buf[:0], cols)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(s.buf)))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("exec: spill write: %w", err)
	}
	if _, err := s.w.Write(s.buf); err != nil {
		return fmt.Errorf("exec: spill write: %w", err)
	}
	s.rows += int64(cols[0].Len())
	s.bytes += int64(4 + len(s.buf))
	return nil
}

// finish flushes and rewinds the file, returning a reader over its frames.
// The spillFile must not be written afterwards.
func (s *spillFile) finish() (*spillRun, error) {
	if err := s.w.Flush(); err != nil {
		return nil, fmt.Errorf("exec: spill flush: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("exec: spill rewind: %w", err)
	}
	return &spillRun{f: s.f, r: bufio.NewReaderSize(s.f, 1<<16), rows: s.rows, bytes: s.bytes}, nil
}

// discard closes and removes the file without reading it back.
func (s *spillFile) discard() {
	if s.f != nil {
		name := s.f.Name()
		s.f.Close()
		os.Remove(name)
		s.f = nil
	}
}

// spillRun streams frames back from a finished spill file.
type spillRun struct {
	f     *os.File
	r     *bufio.Reader
	buf   []byte
	rows  int64
	bytes int64
}

// next returns the next frame's columns, or nil at EOF.
func (r *spillRun) next() ([]*vector.Vector, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("exec: spill read: %w", err)
	}
	ln := binary.LittleEndian.Uint32(hdr[:])
	if cap(r.buf) < int(ln) {
		r.buf = make([]byte, ln)
	}
	r.buf = r.buf[:ln]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return nil, fmt.Errorf("exec: spill read: %w", err)
	}
	cols, _, err := vector.DecodeColumns(r.buf)
	if err != nil {
		return nil, fmt.Errorf("exec: spill decode: %w", err)
	}
	return cols, nil
}

// close closes and removes the underlying file.
func (r *spillRun) close() {
	if r != nil && r.f != nil {
		name := r.f.Name()
		r.f.Close()
		os.Remove(name)
		r.f = nil
	}
}

// runMerger k-way merges sorted spilled runs through the merge kernel
// MergeUnion uses: each run of rows is copied with one AppendRange per
// column, or passed through when it is a whole spilled chunk.
type runMerger struct {
	*merger
	spills []*spillRun // not runs: that is the embedded merger's counter
}

func newRunMerger(runs []*spillRun, keys []SortKey, types []vector.Type) (*runMerger, error) {
	pulls := make([]func() ([]*vector.Vector, error), len(runs))
	for i, r := range runs {
		pulls[i] = pullRun(r)
	}
	m, err := newMerger(keys, types, pulls)
	if err != nil {
		return nil, err
	}
	return &runMerger{merger: m, spills: runs}, nil
}

// pullRun adapts a spilled run to the merger's input, closing the run as
// soon as it is drained.
func pullRun(r *spillRun) func() ([]*vector.Vector, error) {
	return func() ([]*vector.Vector, error) {
		cols, err := r.next()
		if cols == nil && err == nil {
			r.close()
		}
		return cols, err
	}
}

// close releases any runs not yet drained.
func (m *runMerger) close() {
	for _, r := range m.spills {
		r.close()
	}
}
