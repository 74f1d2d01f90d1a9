package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// seedMessages are the fuzz corpus: a hello, a 51-row result, an error, a
// set with two settings and a cancel.
func seedMessages() (reqs []*Request, resps []*Response) {
	rows := make([][]string, 51)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i * 7)}
	}
	resps = []*Response{
		{SessionID: 1, Tenant: "default", Message: "patchindex server ready"},
		{ID: 3, Columns: []string{"payload"}, Rows: rows, DurationUS: 41},
		{ID: 4, Error: "sql: parse error near offset 0", Code: CodeError},
	}
	reqs = []*Request{
		{ID: 5, Type: TypeSet, Settings: map[string]string{"timeout_ms": "250", "max_rows": "10"}},
		{ID: 6, Type: TypeCancel, CancelID: 3},
	}
	return reqs, resps
}

// textRows is already rendered rows, as an encoder reads them.
type textRows [][]string

func (r textRows) Len() int                               { return len(r) }
func (r textRows) Width(i int) int                        { return len(r[i]) }
func (r textRows) AppendCell(dst []byte, i, j int) []byte { return append(dst, r[i][j]...) }

// wire is r as it is handed to an encoder: its Rows as Cells.
func wire(r *Response) *Response {
	w := *r
	if w.Rows != nil {
		w.Cells, w.Rows = textRows(w.Rows), nil
	}
	return &w
}

func encodeRequest(r *Request) []byte   { return appendRequest(nil, r) }
func encodeResponse(r *Response) []byte { return appendResponse(nil, wire(r)) }

func TestRoundTripSeeds(t *testing.T) {
	reqs, resps := seedMessages()
	for _, want := range reqs {
		got, err := decodeRequest(encodeRequest(want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("request %+v came back %+v, %v", want, got, err)
		}
	}
	for _, want := range resps {
		got, err := decodeResponse(encodeResponse(want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("response %+v came back %+v, %v", want, got, err)
		}
	}
}

// TestSettingsEncodeSorted: a map's iteration order does not reach the wire.
func TestSettingsEncodeSorted(t *testing.T) {
	r := &Request{Type: TypeSet, Settings: map[string]string{}}
	for i := 0; i < 20; i++ {
		r.Settings[fmt.Sprintf("k%02d", i)] = fmt.Sprint(i)
	}
	first := encodeRequest(r)
	for i := 0; i < 10; i++ {
		if !bytes.Equal(encodeRequest(r), first) {
			t.Fatal("the same settings encoded differently")
		}
	}
	if a, b := bytes.Index(first, []byte("k00")), bytes.Index(first, []byte("k19")); a < 0 || b < a {
		t.Fatalf("keys not in sorted order: %q", first)
	}
}

// TestDecodeRejectsOverlongCounts: a count the payload cannot hold fails
// before anything is allocated for it.
func TestDecodeRejectsOverlongCounts(t *testing.T) {
	huge := func(b []byte) []byte { return appendLen(b, 1<<40, true) }
	head := func(b []byte) []byte { // ID, SessionID, Tenant
		return append(b, 0, 0, 0)
	}
	for name, payload := range map[string][]byte{
		"columns":  huge(head(nil)),
		"rows":     huge(append(head(nil), 0)),
		"cells":    append(appendLen(append(head(nil), 0), 1, true), 0xff, 0xff, 0x3f),
		"short":    append(appendLen(append(head(nil), 0), 2, true), 0),
		"string":   append(head(nil)[:2], 0xff, 0xff, 0xff, 0xff, 0x0f),
		"settings": huge(append([]byte{1}, 0, 0)),
	} {
		var err error
		if name == "settings" {
			_, err = decodeRequest(payload)
		} else {
			_, err = decodeResponse(payload)
		}
		if err == nil {
			t.Errorf("%s: an overlong count decoded", name)
		}
	}
	var w bytes.Buffer
	w.Write([]byte{0x03, 0xff, 0xff, 0xff}) // a 64 MiB frame with nothing after it
	if _, err := NewReader(&w).ReadResponse(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v", err)
	}
}

// TestDecodeAllocatesByContent: a count as large as the frame can carry
// allocates for the elements that really follow it, not for the count.
func TestDecodeAllocatesByContent(t *testing.T) {
	const size = 1 << 20
	// A set request of size/2 settings, all the same empty key and value:
	// valid, and one map entry.
	set := appendLen([]byte{0, 3, 's', 'e', 't', 0}, size/2, true)
	set = append(append(set, make([]byte, size)...), 0, 0, 0)
	// Results that claim a row or a column per byte, followed by one cell
	// or column that fills the frame.
	fill := binary.AppendUvarint(nil, size)
	fill = append(fill, make([]byte, size)...)
	rows := append(appendLen([]byte{0, 0, 0, 0}, size, true), 1)
	rows = append(rows, fill...)
	cols := append(appendLen([]byte{0, 0, 0}, size, true), fill...)
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"settings", set, func(b []byte) error { _, err := decodeRequest(b); return err }},
		{"rows", rows, func(b []byte) error { _, err := decodeResponse(b); return err }},
		{"columns", cols, func(b []byte) error { _, err := decodeResponse(b); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(c.payload)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(c.payload)) {
			t.Errorf("%s: decoding %d bytes allocated %d (err %v)", c.name, len(c.payload), got, err)
		}
	}
}

// writeCounter counts Write calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriterOneWritePerMessage: header and payload leave in one Write, and
// a Reader gets back every message, long cells included.
func TestWriterOneWritePerMessage(t *testing.T) {
	var wc writeCounter
	w := NewWriter(&wc)
	reqs, resps := seedMessages()
	long := strings.Repeat("y", 1000)
	resps = append(resps, &Response{ID: 9, Rows: [][]string{{long, ""}, {}}})
	for _, r := range resps {
		if err := w.WriteResponse(wire(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range reqs {
		if err := w.WriteRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	if wc.writes != len(resps)+len(reqs) {
		t.Fatalf("%d writes for %d messages", wc.writes, len(resps)+len(reqs))
	}
	rd := NewReader(&wc.Buffer)
	for _, want := range resps {
		got, err := rd.ReadResponse()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("response %+v came back %+v, %v", want, got, err)
		}
	}
	for _, want := range reqs {
		got, err := rd.ReadRequest()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("request %+v came back %+v, %v", want, got, err)
		}
	}
}

// fuzzGen builds message fields from fuzz input.
type fuzzGen struct{ b []byte }

func (g *fuzzGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *fuzzGen) uint() uint64 {
	var x uint64
	for i := g.byte() % 9; i > 0; i-- {
		x = x<<8 | uint64(g.byte())
	}
	return x
}

// string takes any bytes, up to 200 of them.
func (g *fuzzGen) string() string {
	n := min(int(g.byte())%201, len(g.b))
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

// size is -1 (absent), 0 (empty) or a small count.
func (g *fuzzGen) size() int { return int(g.byte()%8) - 1 }

func (g *fuzzGen) strings() []string {
	n := g.size()
	if n < 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = g.string()
	}
	return out
}

func (g *fuzzGen) request() *Request {
	r := &Request{ID: g.uint(), Type: g.string(), SQL: g.string()}
	if n := g.size(); n >= 0 {
		r.Settings = map[string]string{}
		for i := 0; i < n; i++ {
			r.Settings[g.string()] = g.string()
		}
	}
	r.CancelID, r.Trace, r.Tenant = g.uint(), g.byte()&1 == 1, g.string()
	return r
}

func (g *fuzzGen) response() *Response {
	r := &Response{ID: g.uint(), SessionID: g.uint(), Tenant: g.string(), Columns: g.strings()}
	if n := g.size(); n >= 0 {
		r.Rows = make([][]string, n)
		for i := range r.Rows {
			if r.Rows[i] = g.strings(); r.Rows[i] == nil {
				r.Rows[i] = []string{} // a row is a count of cells, never absent
			}
		}
	}
	r.Message, r.Truncated = g.string(), g.byte()&1 == 1
	r.DurationUS, r.TraceID = int64(g.uint()), g.uint()
	r.Error, r.Code = g.string(), g.string()
	return r
}

// FuzzWireFrames: any payload decodes as a request and as a response without
// panicking, and what decodes re-encodes to the same message; any byte
// stream reads as frames without panicking; and messages built from the
// input survive encode and decode unchanged.
func FuzzWireFrames(f *testing.F) {
	reqs, resps := seedMessages()
	for _, r := range reqs {
		f.Add(encodeRequest(r))
	}
	for _, r := range resps {
		f.Add(encodeResponse(r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeRequest(data); err == nil {
			again, err := decodeRequest(encodeRequest(req))
			if err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("request %+v re-decoded as %+v, %v", req, again, err)
			}
		}
		if resp, err := decodeResponse(data); err == nil {
			again, err := decodeResponse(encodeResponse(resp))
			if err != nil || !reflect.DeepEqual(again, resp) {
				t.Fatalf("response %+v re-decoded as %+v, %v", resp, again, err)
			}
		}
		rd := NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			if _, err := rd.ReadResponse(); err != nil && !strings.HasPrefix(err.Error(), "protocol: bad message") {
				break
			}
		}

		g := &fuzzGen{b: data}
		req := g.request()
		if got, err := decodeRequest(encodeRequest(req)); err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("request %+v came back %+v, %v", req, got, err)
		}
		resp := g.response()
		if got, err := decodeResponse(encodeResponse(resp)); err != nil || !reflect.DeepEqual(got, resp) {
			t.Fatalf("response %+v came back %+v, %v", resp, got, err)
		}
	})
}
