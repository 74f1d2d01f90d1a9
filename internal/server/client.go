package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"patchindex/internal/server/protocol"
	"patchindex/internal/serving"
)

// Client is a synchronous wire-protocol client. One request is in flight at
// a time (calls serialize on an internal mutex); QueryContext additionally
// sends a cancel request when its context ends mid-query.
type Client struct {
	conn      net.Conn
	br        *bufio.Reader
	mu        sync.Mutex
	nextID    uint64
	sessionID uint64
	trace     bool // request a trace with every query (\trace on)
}

// ClientResult is a rendered query result from the server.
type ClientResult struct {
	Columns   []string
	Rows      [][]string
	Message   string
	Truncated bool
	Duration  time.Duration
	// TraceID identifies the statement's server-side trace when it was
	// traced; find it with SHOW QUERIES or fetch HTTP /trace/<id>.
	TraceID uint64
}

// ServerError is an error response from the server. It unwraps to the
// matching sentinel (context.DeadlineExceeded, context.Canceled,
// ErrServerBusy, serving.ErrThrottled) so callers can use errors.Is on the
// code.
type ServerError struct {
	Msg  string
	Code string
}

// Error implements error.
func (e *ServerError) Error() string { return fmt.Sprintf("%s (%s)", e.Msg, e.Code) }

// Unwrap maps the wire code to its Go sentinel.
func (e *ServerError) Unwrap() error {
	switch e.Code {
	case protocol.CodeTimeout:
		return context.DeadlineExceeded
	case protocol.CodeCanceled:
		return context.Canceled
	case protocol.CodeBusy:
		return ErrServerBusy
	case protocol.CodeThrottled:
		return serving.ErrThrottled
	case protocol.CodeShutdown:
		return errShuttingDown
	}
	return nil
}

// Dial connects to a patchserver, performs the magic handshake, and reads
// the hello message.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte(protocol.Magic)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	hello, err := protocol.ReadResponse(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server handshake: %w", err)
	}
	return &Client{conn: conn, br: br, sessionID: hello.SessionID}, nil
}

// SessionID returns the server-assigned session id.
func (c *Client) SessionID() uint64 { return c.sessionID }

// SetTenant moves the session to the given QoS tenant (the programmatic
// `\set tenant`).
func (c *Client) SetTenant(tenant string) error {
	return c.Set(map[string]string{"tenant": tenant})
}

// Query executes one SQL statement.
func (c *Client) Query(sqlText string) (*ClientResult, error) {
	return c.QueryContext(context.Background(), sqlText)
}

// QueryContext executes one SQL statement; when ctx ends before the
// response arrives, a cancel request is sent and the call returns the
// server's (typically "canceled") response.
func (c *Client) QueryContext(ctx context.Context, sqlText string) (*ClientResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	if err := protocol.WriteMessage(c.conn, &protocol.Request{
		ID: id, Type: protocol.TypeQuery, SQL: sqlText, Trace: c.trace,
	}); err != nil {
		return nil, err
	}

	respCh := make(chan *protocol.Response, 4)
	errCh := make(chan error, 1)
	go func() {
		for {
			resp, err := protocol.ReadResponse(c.br)
			if err != nil {
				errCh <- err
				return
			}
			respCh <- resp
			if resp.ID == id {
				return
			}
		}
	}()

	ctxDone := ctx.Done()
	for {
		select {
		case err := <-errCh:
			return nil, err
		case resp := <-respCh:
			if resp.ID != id {
				continue // ack for our cancel request
			}
			return toResult(resp)
		case <-ctxDone:
			// Ask the server to abort, then keep waiting for its answer so
			// the stream stays in sync.
			c.nextID++
			if err := protocol.WriteMessage(c.conn, &protocol.Request{
				ID: c.nextID, Type: protocol.TypeCancel, CancelID: id,
			}); err != nil {
				return nil, err
			}
			ctxDone = nil
		}
	}
}

// Set updates session settings (timeout_ms, max_rows, disable_rewrites).
func (c *Client) Set(settings map[string]string) error {
	resp, err := c.roundTrip(&protocol.Request{Type: protocol.TypeSet, Settings: settings})
	if err != nil {
		return err
	}
	_, err = toResult(resp)
	return err
}

// Ping checks liveness.
func (c *Client) Ping() error {
	resp, err := c.roundTrip(&protocol.Request{Type: protocol.TypePing})
	if err != nil {
		return err
	}
	_, err = toResult(resp)
	return err
}

// Trace toggles per-statement tracing: when on, every subsequent Query asks
// the server for a full span trace and the response carries its trace id.
func (c *Client) Trace(on bool) {
	c.mu.Lock()
	c.trace = on
	c.mu.Unlock()
}

// Close ends the session and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	_ = protocol.WriteMessage(c.conn, &protocol.Request{ID: c.nextID, Type: protocol.TypeClose})
	// Best effort: read the goodbye so the server sees a clean close.
	_ = c.conn.SetReadDeadline(time.Now().Add(time.Second))
	_, _ = protocol.ReadResponse(c.br)
	return c.conn.Close()
}

// roundTrip sends one request and reads its response.
func (c *Client) roundTrip(req *protocol.Request) (*protocol.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req.ID = c.nextID
	if err := protocol.WriteMessage(c.conn, req); err != nil {
		return nil, err
	}
	for {
		resp, err := protocol.ReadResponse(c.br)
		if err != nil {
			return nil, err
		}
		if resp.ID == req.ID {
			return resp, nil
		}
	}
}

// toResult converts a wire response into a ClientResult or a ServerError.
func toResult(resp *protocol.Response) (*ClientResult, error) {
	if resp.Error != "" {
		return nil, &ServerError{Msg: resp.Error, Code: resp.Code}
	}
	return &ClientResult{
		Columns:   resp.Columns,
		Rows:      resp.Rows,
		Message:   resp.Message,
		Truncated: resp.Truncated,
		Duration:  time.Duration(resp.DurationUS) * time.Microsecond,
		TraceID:   resp.TraceID,
	}, nil
}
