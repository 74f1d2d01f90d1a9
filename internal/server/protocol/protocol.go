// Package protocol defines the patchserver wire protocol: after a 6-byte
// magic handshake ("PIDX2\n", which also lets the server share its TCP port
// with plain HTTP), client and server exchange length-prefixed binary
// frames — a 4-byte big-endian payload length followed by one message
// encoded as uvarints and length-prefixed strings. Result cells travel as
// the text Value.String renders. The protocol is request/response with one
// extension: a client may send a "cancel" request while a query is in
// flight to abort it.
//
// There are five request types. Introspection has none of its own: the
// engine's views (query history, metrics, workload, index health, tuner,
// alerts) are SHOW statements sent as ordinary queries, so they pass the
// same admission control and tracing as every statement.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
)

// Magic is written by clients immediately after connecting. Its first bytes
// are what the server sniffs to tell a wire-protocol connection from an
// HTTP request on the shared listener; a connection that opens with another
// version's magic is closed.
const Magic = "PIDX2\n"

// MaxMessageSize bounds a single frame; larger frames are rejected so a
// corrupt length prefix cannot trigger an unbounded allocation.
const MaxMessageSize = 64 << 20

// ErrTooLarge is returned by a Writer whose message exceeds MaxMessageSize.
var ErrTooLarge = errors.New("protocol: message exceeds the frame limit")

// Request types.
const (
	// TypeQuery executes one SQL statement.
	TypeQuery = "query"
	// TypeSet updates session settings (timeout_ms, max_rows, ...).
	TypeSet = "set"
	// TypePing is a liveness no-op.
	TypePing = "ping"
	// TypeCancel aborts the in-flight (or a queued) query with id CancelID,
	// or whichever is first when CancelID is 0.
	TypeCancel = "cancel"
	// TypeClose ends the session gracefully.
	TypeClose = "close"
)

// Error codes carried in Response.Code.
const (
	// CodeBusy: the admission queue was full and the query was shed.
	CodeBusy = "busy"
	// CodeThrottled: the session's tenant exceeded its QoS rate limit or
	// in-flight cap and the query was shed before queueing.
	CodeThrottled = "throttled"
	// CodeTimeout: the session's timeout_ms elapsed mid-execution.
	CodeTimeout = "timeout"
	// CodeCanceled: the query was cancelled (cancel request, disconnect, or
	// server shutdown).
	CodeCanceled = "canceled"
	// CodeShutdown: the server is draining and rejected new work.
	CodeShutdown = "shutdown"
	// CodeError: any other execution or parse error.
	CodeError = "error"
)

// Request is one client→server message.
type Request struct {
	// ID correlates the response; clients should use increasing ids.
	ID   uint64
	Type string
	// SQL is the statement text for TypeQuery.
	SQL string
	// Settings holds key/value pairs for TypeSet.
	Settings map[string]string
	// CancelID names the query to abort for TypeCancel.
	CancelID uint64
	// Trace, for TypeQuery, forces a full trace (span tree) of this
	// statement; the trace id comes back in Response.TraceID and the
	// profile is retrievable via SHOW QUERIES or HTTP /trace/<id>.
	Trace bool
	// Tenant identifies the session's QoS tenant. It may ride any request
	// but a cancel (typically the first one a client sends) and moves the
	// session to that tenant; empty keeps the current tenant (sessions
	// start on the default tenant). `\set tenant` reaches the same state
	// via Settings["tenant"].
	Tenant string
}

// Response is one server→client message.
type Response struct {
	// ID echoes the request id (0 for the initial hello).
	ID uint64
	// SessionID identifies the session; set on the hello message.
	SessionID uint64
	// Tenant echoes the session's QoS tenant on the hello message (the
	// default tenant, until the client sets one).
	Tenant string
	// Columns and Rows carry a query result set (rows rendered as text).
	// Rows is what a decoded response holds; its cells all share one
	// string and one backing array.
	Columns []string
	Rows    [][]string
	// Cells is the result set an encoder writes, so a server renders its
	// values straight into the frame; it decodes into Rows.
	Cells Rows
	// Message carries non-result output ("table created", EXPLAIN text, ...).
	Message string
	// Truncated is set when max_rows clipped the result.
	Truncated bool
	// DurationUS is the server-side statement wall time in microseconds.
	DurationUS int64
	// TraceID identifies the statement's profile in the server's query
	// history when the statement was traced (Request.Trace or server-side
	// sampling); 0 otherwise.
	TraceID uint64
	// Error and Code are set instead of a result on failure.
	Error string
	Code  string
}

// Rows is a result set as the encoder reads it: Len rows, row i of Width(i)
// cells, cell j of which AppendCell appends as text.
type Rows interface {
	Len() int
	Width(i int) int
	AppendCell(dst []byte, i, j int) []byte
}

// keepBuf is the largest buffer a Reader or Writer keeps for its next
// message; a larger one is dropped once used.
const keepBuf = 1 << 20

// Writer sends messages on one connection. Each message is encoded into a
// buffer the Writer reuses, header and payload together, and goes out in
// one Write. A mutex orders the messages of concurrent callers.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteRequest sends one request.
func (w *Writer) WriteRequest(r *Request) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.send(appendRequest(append(w.buf[:0], 0, 0, 0, 0), r))
}

// WriteResponse sends one response.
func (w *Writer) WriteResponse(r *Response) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.send(appendResponse(append(w.buf[:0], 0, 0, 0, 0), r))
}

// send fills in the header of frame, whose first four bytes are reserved
// for it, and writes the frame.
func (w *Writer) send(frame []byte) error {
	w.buf = nil
	if cap(frame) <= keepBuf {
		w.buf = frame[:0]
	}
	n := len(frame) - 4
	if n > MaxMessageSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.w.Write(frame)
	return err
}

// Reader reads messages from one connection into a buffer it reuses.
type Reader struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
}

// NewReader returns a Reader on r; r should be buffered.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadRequest reads one request.
func (rd *Reader) ReadRequest() (*Request, error) {
	payload, err := rd.next()
	if err != nil {
		return nil, err
	}
	return decodeRequest(payload)
}

// ReadResponse reads one response.
func (rd *Reader) ReadResponse() (*Response, error) {
	payload, err := rd.next()
	if err != nil {
		return nil, err
	}
	return decodeResponse(payload)
}

// next reads one frame and returns its payload, which is valid until the
// next call.
func (rd *Reader) next() ([]byte, error) {
	if _, err := io.ReadFull(rd.r, rd.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(rd.hdr[:]))
	if n > MaxMessageSize {
		return nil, fmt.Errorf("protocol: frame of %d bytes exceeds limit", n)
	}
	// The buffer at most doubles before the bytes to fill it arrive, so a
	// corrupt length allocates in proportion to what really follows it.
	body := rd.buf[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n, max(2*cap(body), 4<<10))-len(body))
		}
		end := min(n, cap(body))
		if _, err := io.ReadFull(rd.r, body[len(body):end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		body = body[:end]
	}
	rd.buf = nil
	if cap(body) <= keepBuf {
		rd.buf = body[:0]
	}
	return body, nil
}

// A message is its fields in declaration order: integers as uvarints
// (DurationUS zig-zag), booleans as one byte, strings as a uvarint length
// and the bytes. A list or map is a uvarint count plus one, 0 meaning
// absent (nil), then its elements; map keys go in sorted order. Rows, when
// present, is followed by each row as a plain count of cells and the
// cells.

func appendRequest(b []byte, r *Request) []byte {
	b = binary.AppendUvarint(b, r.ID)
	b = appendString(b, r.Type)
	b = appendString(b, r.SQL)
	b = appendLen(b, len(r.Settings), r.Settings != nil)
	if len(r.Settings) > 0 {
		keys := make([]string, 0, len(r.Settings))
		for k := range r.Settings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = appendString(appendString(b, k), r.Settings[k])
		}
	}
	b = binary.AppendUvarint(b, r.CancelID)
	b = appendBool(b, r.Trace)
	return appendString(b, r.Tenant)
}

func appendResponse(b []byte, r *Response) []byte {
	b = binary.AppendUvarint(b, r.ID)
	b = binary.AppendUvarint(b, r.SessionID)
	b = appendString(b, r.Tenant)
	b = appendLen(b, len(r.Columns), r.Columns != nil)
	for _, c := range r.Columns {
		b = appendString(b, c)
	}
	if r.Cells == nil {
		b = appendLen(b, 0, false)
	} else {
		n := r.Cells.Len()
		b = appendLen(b, n, true)
		var cell []byte // each cell is rendered here, then appended as a string
		for i := 0; i < n; i++ {
			w := r.Cells.Width(i)
			b = binary.AppendUvarint(b, uint64(w))
			for j := 0; j < w; j++ {
				cell = r.Cells.AppendCell(cell[:0], i, j)
				b = append(binary.AppendUvarint(b, uint64(len(cell))), cell...)
			}
		}
	}
	b = appendString(b, r.Message)
	b = appendBool(b, r.Truncated)
	b = binary.AppendVarint(b, r.DurationUS)
	b = binary.AppendUvarint(b, r.TraceID)
	b = appendString(b, r.Error)
	return appendString(b, r.Code)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendLen(b []byte, n int, present bool) []byte {
	if !present {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// decoder reads one message's fields off its payload, b, whose copy s the
// decoded strings are slices of. The first failure sticks: later reads
// return zero values.
type decoder struct {
	b   []byte
	s   string
	off int
	err error
}

func newDecoder(payload []byte) *decoder {
	return &decoder{b: payload, s: string(payload)}
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("protocol: bad message: %s", what)
	}
	d.off = len(d.b)
}

// rest is the number of bytes not read yet.
func (d *decoder) rest() int { return len(d.b) - d.off }

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad or truncated integer")
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) varint() int64 {
	x, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad or truncated integer")
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) bool() bool {
	if d.rest() == 0 || d.b[d.off] > 1 {
		d.fail("bad boolean")
		return false
	}
	d.off++
	return d.b[d.off-1] == 1
}

func (d *decoder) string() string {
	n := d.uvarint()
	if n > uint64(d.rest()) {
		d.fail("string overruns the frame")
		return ""
	}
	d.off += int(n)
	return d.s[d.off-int(n) : d.off]
}

// count reads a count of elements that take at least one byte each; a
// count the rest of the payload cannot hold fails.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(d.rest()) {
		d.fail("count overruns the frame")
		return 0
	}
	return int(n)
}

// list reads a list or map count; -1 means absent. Callers size nothing
// by it: the elements themselves show how many there are.
func (d *decoder) list() int {
	n := d.uvarint()
	if n == 0 {
		return -1
	}
	if n-1 > uint64(d.rest()) {
		d.fail("count overruns the frame")
		return -1
	}
	return int(n - 1)
}

func (d *decoder) strings() []string {
	n := d.list()
	if n < 0 {
		return nil
	}
	out := make([]string, 0, min(n, 16))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.string())
	}
	return out
}

// rows reads Rows, slicing every cell into one backing array. A first pass
// counts the cells, so the arrays are sized by what the payload holds.
func (d *decoder) rows() [][]string {
	n := d.list()
	if n < 0 {
		return nil
	}
	start, total := d.off, 0
	for i := 0; i < n && d.err == nil; i++ {
		w := d.count()
		for j := 0; j < w && d.err == nil; j++ {
			d.string()
		}
		total += w
	}
	if d.err != nil {
		return nil
	}
	d.off = start
	rows, cells := make([][]string, n), make([]string, total)
	for i := range rows {
		w := int(d.uvarint())
		rows[i], cells = cells[:w:w], cells[w:]
		for j := range rows[i] {
			rows[i][j] = d.string()
		}
	}
	return rows
}

// end checks that the payload held exactly one message.
func (d *decoder) end() error {
	if d.err == nil && d.rest() > 0 {
		d.fail("trailing bytes")
	}
	return d.err
}

func decodeRequest(payload []byte) (*Request, error) {
	d := newDecoder(payload)
	r := &Request{ID: d.uvarint(), Type: d.string(), SQL: d.string()}
	if n := d.list(); n >= 0 {
		r.Settings = map[string]string{}
		for i := 0; i < n && d.err == nil; i++ {
			k := d.string()
			r.Settings[k] = d.string()
		}
	}
	r.CancelID = d.uvarint()
	r.Trace = d.bool()
	r.Tenant = d.string()
	if err := d.end(); err != nil {
		return nil, err
	}
	return r, nil
}

func decodeResponse(payload []byte) (*Response, error) {
	d := newDecoder(payload)
	r := &Response{ID: d.uvarint(), SessionID: d.uvarint(), Tenant: d.string()}
	r.Columns = d.strings()
	r.Rows = d.rows()
	r.Message = d.string()
	r.Truncated = d.bool()
	r.DurationUS = d.varint()
	r.TraceID = d.uvarint()
	r.Error = d.string()
	r.Code = d.string()
	if err := d.end(); err != nil {
		return nil, err
	}
	return r, nil
}
