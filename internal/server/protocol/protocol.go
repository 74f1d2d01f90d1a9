// Package protocol defines the patchserver wire protocol: after a 6-byte
// magic handshake ("PIDX1\n", which also lets the server share its TCP port
// with plain HTTP), client and server exchange length-prefixed JSON
// messages — a 4-byte big-endian payload length followed by one JSON
// document. The protocol is request/response with one extension: a client
// may send a "cancel" request while a query is in flight to abort it.
//
// There are five request types. Introspection has none of its own: the
// engine's views (query history, metrics, workload, index health, tuner,
// alerts) are SHOW statements sent as ordinary queries, so they pass the
// same admission control and tracing as every statement.
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Magic is written by clients immediately after connecting. Its first bytes
// are what the server sniffs to tell a wire-protocol connection from an
// HTTP request on the shared listener.
const Magic = "PIDX1\n"

// MaxMessageSize bounds a single frame; larger frames are rejected so a
// corrupt length prefix cannot trigger an unbounded allocation.
const MaxMessageSize = 64 << 20

// Request types.
const (
	// TypeQuery executes one SQL statement.
	TypeQuery = "query"
	// TypeSet updates session settings (timeout_ms, max_rows, ...).
	TypeSet = "set"
	// TypePing is a liveness no-op.
	TypePing = "ping"
	// TypeCancel aborts the in-flight query with id CancelID.
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
	ID   uint64 `json:"id"`
	Type string `json:"type"`
	// SQL is the statement text for TypeQuery.
	SQL string `json:"sql,omitempty"`
	// Settings holds key/value pairs for TypeSet.
	Settings map[string]string `json:"settings,omitempty"`
	// CancelID names the in-flight query to abort for TypeCancel.
	CancelID uint64 `json:"cancel_id,omitempty"`
	// Trace, for TypeQuery, forces a full trace (span tree) of this
	// statement; the trace id comes back in Response.TraceID and the
	// profile is retrievable via SHOW QUERIES or HTTP /trace/<id>.
	Trace bool `json:"trace,omitempty"`
	// Tenant identifies the session's QoS tenant. It may ride any request
	// (typically the first one a client sends) and moves the session to
	// that tenant; absent or empty keeps the current tenant (sessions start
	// on the default tenant). `\set tenant` reaches the same state via
	// Settings["tenant"].
	Tenant string `json:"tenant,omitempty"`
}

// Response is one server→client message.
type Response struct {
	// ID echoes the request id (0 for the initial hello).
	ID uint64 `json:"id"`
	// SessionID identifies the session; set on the hello message.
	SessionID uint64 `json:"session_id,omitempty"`
	// Tenant echoes the session's QoS tenant on the hello message (the
	// default tenant, until the client sets one).
	Tenant string `json:"tenant,omitempty"`
	// Columns and Rows carry a query result set (rows rendered as strings).
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// Message carries non-result output ("table created", EXPLAIN text, ...).
	Message string `json:"message,omitempty"`
	// Truncated is set when max_rows clipped the result.
	Truncated bool `json:"truncated,omitempty"`
	// DurationUS is the server-side statement wall time in microseconds.
	DurationUS int64 `json:"duration_us,omitempty"`
	// TraceID identifies the statement's profile in the server's query
	// history when the statement was traced (Request.Trace or server-side
	// sampling); 0 otherwise.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Error and Code are set instead of a result on failure.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// Err converts an error response into a Go error (nil for success).
func (r *Response) Err() error {
	if r == nil || r.Error == "" {
		return nil
	}
	return fmt.Errorf("%s (%s)", r.Error, r.Code)
}

// WriteMessage frames and writes one JSON message.
func WriteMessage(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body) > MaxMessageSize {
		return fmt.Errorf("protocol: message of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readFrame reads one length-prefixed payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageSize {
		return nil, fmt.Errorf("protocol: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// ReadRequest reads one framed request.
func ReadRequest(r io.Reader) (*Request, error) {
	body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	req := &Request{}
	if err := json.Unmarshal(body, req); err != nil {
		return nil, fmt.Errorf("protocol: bad request: %w", err)
	}
	return req, nil
}

// ReadResponse reads one framed response.
func ReadResponse(r io.Reader) (*Response, error) {
	body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	resp := &Response{}
	if err := json.Unmarshal(body, resp); err != nil {
		return nil, fmt.Errorf("protocol: bad response: %w", err)
	}
	return resp, nil
}
