package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func tempLog(t *testing.T) (string, *Log) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, l
}

func TestRoundTrip(t *testing.T) {
	path, l := tempLog(t)
	recs := []CreateIndexRecord{
		{Table: "t1", Column: "c1", Constraint: 0, Kind: 2, Threshold: 0.1, Descending: false},
		{Table: "t2", Column: "c2", Constraint: 1, Kind: 0, Threshold: 0.333, Descending: true},
	}
	for _, r := range recs {
		if err := l.AppendCreateIndex(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendDropIndex(DropIndexRecord{Table: "t1", Column: "c1"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var creates []CreateIndexRecord
	var drops []DropIndexRecord
	err := Replay(path, func(e Entry) error {
		switch e.Kind {
		case RecordCreateIndex:
			creates = append(creates, *e.Create)
		case RecordDropIndex:
			drops = append(drops, *e.Drop)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(creates) != 2 || len(drops) != 1 {
		t.Fatalf("replayed %d creates, %d drops", len(creates), len(drops))
	}
	for i, r := range recs {
		if creates[i] != r {
			t.Errorf("record %d: %+v != %+v", i, creates[i], r)
		}
	}
	if drops[0].Table != "t1" || drops[0].Column != "c1" {
		t.Errorf("drop = %+v", drops[0])
	}
}

func TestReplayMissingFile(t *testing.T) {
	err := Replay(filepath.Join(t.TempDir(), "nope.wal"), func(Entry) error {
		t.Error("callback should not fire")
		return nil
	})
	if err != nil {
		t.Errorf("missing file should be a clean no-op: %v", err)
	}
}

func TestTornWriteTolerated(t *testing.T) {
	path, l := tempLog(t)
	if err := l.AppendCreateIndex(CreateIndexRecord{Table: "a", Column: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCreateIndex(CreateIndexRecord{Table: "c", Column: "d"}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Truncate the file inside the second record (torn write).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := Replay(path, func(Entry) error { n++; return nil }); err != nil {
		t.Fatalf("torn trailing record must not error: %v", err)
	}
	if n != 1 {
		t.Errorf("replayed %d records, want 1", n)
	}
}

func TestCorruptCRCDetected(t *testing.T) {
	path, l := tempLog(t)
	if err := l.AppendCreateIndex(CreateIndexRecord{Table: "a", Column: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCreateIndex(CreateIndexRecord{Table: "c", Column: "d"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record (mid-log corruption).
	data[12] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = Replay(path, func(Entry) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("expected ErrCorrupt, got %v", err)
	}
}

func TestBadMagicDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.wal")
	if err := os.WriteFile(path, []byte("definitely not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Replay(path, func(Entry) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("expected ErrCorrupt for bad magic, got %v", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	_, l := tempLog(t)
	l.Close()
	if err := l.AppendCreateIndex(CreateIndexRecord{Table: "x", Column: "y"}); err == nil {
		t.Error("append after close must fail")
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close should be fine: %v", err)
	}
}

func TestCallbackErrorStopsReplay(t *testing.T) {
	path, l := tempLog(t)
	for i := 0; i < 3; i++ {
		if err := l.AppendDropIndex(DropIndexRecord{Table: "t", Column: "c"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	n := 0
	wantErr := errors.New("stop")
	err := Replay(path, func(Entry) error {
		n++
		if n == 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) || n != 2 {
		t.Errorf("err=%v n=%d", err, n)
	}
}

func TestAppendReopenAppend(t *testing.T) {
	path, l := tempLog(t)
	if err := l.AppendCreateIndex(CreateIndexRecord{Table: "a", Column: "b"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.AppendCreateIndex(CreateIndexRecord{Table: "c", Column: "d"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	n := 0
	if err := Replay(path, func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("replayed %d, want 2 (append across reopen)", n)
	}
	if l2.Path() != path {
		t.Error("path accessor wrong")
	}
}

// tables replays path and returns the Table of every create-index record.
func tables(t *testing.T, path string) []string {
	t.Helper()
	var got []string
	if err := Replay(path, func(e Entry) error {
		got = append(got, e.Create.Table)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestResumeCutsTornTail: a record torn by a crash is cut before the log
// reopens, so a record appended after the restart replays after the intact
// prefix. Without the cut the torn header would swallow it as payload.
func TestResumeCutsTornTail(t *testing.T) {
	path, l := tempLog(t)
	for _, name := range []string{"a", "b", "c"} {
		if err := l.AppendCreateIndex(CreateIndexRecord{Table: name, Column: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record at every cut point: inside the header, the
	// payload and the CRC.
	recLen := len(data) / 3
	for cut := 1; cut < recLen; cut++ {
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var seen []string
		l2, err := Resume(path, func(e Entry) error {
			seen = append(seen, e.Create.Table)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: Resume: %v", cut, err)
		}
		if len(seen) != 2 {
			t.Fatalf("cut %d: resumed over %v, want the intact [a b]", cut, seen)
		}
		if err := l2.AppendCreateIndex(CreateIndexRecord{Table: "d", Column: "x"}); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if got := tables(t, path); len(got) != 3 || got[2] != "d" {
			t.Fatalf("cut %d: after append replayed %v, want [a b d]", cut, got)
		}
	}
}

// TestResumeKeepsIntactLog: resuming an intact log loses nothing, and
// resuming a missing one creates it.
func TestResumeKeepsIntactLog(t *testing.T) {
	path, l := tempLog(t)
	if err := l.AppendCreateIndex(CreateIndexRecord{Table: "a", Column: "x"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Resume(path, func(Entry) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.AppendCreateIndex(CreateIndexRecord{Table: "b", Column: "x"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if got := tables(t, path); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("replayed %v, want [a b]", got)
	}

	fresh := filepath.Join(t.TempDir(), "new.wal")
	l3, err := Resume(fresh, func(Entry) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l3.Close()
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("Resume did not create the log: %v", err)
	}
}
