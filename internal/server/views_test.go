package server

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"

	"patchindex"
	"patchindex/internal/obs"
	"patchindex/internal/server/protocol"
)

// TestHTTPViewEndpoints fetches /workload and /indexes as JSON documents and
// as ?format=text, which renders the endpoint's SHOW views.
func TestHTTPViewEndpoints(t *testing.T) {
	eng, err := patchindex.New(patchindex.Config{WorkloadProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	loadBigTable(t, eng, 5000)
	if _, err := eng.Exec("CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5"); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: eng})
	c := dial(t, s)
	for _, q := range []string{"SELECT COUNT(DISTINCT u) FROM data", "SELECT s FROM data ORDER BY s LIMIT 3"} {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	code, body, err := httpGet(s, "/workload")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /workload: code=%d err=%v", code, err)
	}
	var wl obs.WorkloadSnapshot
	if err := json.Unmarshal([]byte(body), &wl); err != nil {
		t.Fatalf("/workload is not JSON: %v\n%s", err, body)
	}
	if !wl.Enabled || len(wl.Statements) == 0 || len(wl.Columns) == 0 {
		t.Fatalf("/workload = %+v", wl)
	}

	code, body, err = httpGet(s, "/indexes")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /indexes: code=%d err=%v", code, err)
	}
	var ix struct {
		Tick     int64                    `json:"tick"`
		Indexes  []patchindex.IndexHealth `json:"indexes"`
		Benefits []obs.IndexBenefit       `json:"benefits"`
	}
	if err := json.Unmarshal([]byte(body), &ix); err != nil {
		t.Fatalf("/indexes is not JSON: %v\n%s", err, body)
	}
	if ix.Tick == 0 || len(ix.Indexes) != 1 || ix.Indexes[0].Column != "u" || len(ix.Benefits) == 0 {
		t.Fatalf("/indexes = %+v", ix)
	}

	for path, sections := range map[string][]string{
		"/workload?format=text": {"profiler:", "workload:", "column_accesses:", "shadow_tables:", "select s from data order by s"},
		"/indexes?format=text":  {"indexes:", "benefits:", "NEARLY UNIQUE", "nuc"},
	} {
		code, body, err := httpGet(s, path)
		if err != nil || code != http.StatusOK {
			t.Fatalf("GET %s: code=%d err=%v", path, code, err)
		}
		for _, want := range sections {
			if !strings.Contains(body, want) {
				t.Fatalf("GET %s lacks %q:\n%s", path, want, body)
			}
		}
	}
}

// TestRemovedRequestTypesAreUnknown: introspection moved to SHOW, so the old
// per-view request types get the generic unknown-type error and the session
// carries on.
func TestRemovedRequestTypesAreUnknown(t *testing.T) {
	s := startServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(protocol.Magic)); err != nil {
		t.Fatal(err)
	}
	rd, w := protocol.NewReader(conn), protocol.NewWriter(conn)
	if _, err := rd.ReadResponse(); err != nil { // hello
		t.Fatal(err)
	}
	for i, typ := range []string{"stats", "queries", "workload", "indexes", "tuner", "alerts", protocol.TypePing} {
		id := uint64(i + 1)
		if err := w.WriteRequest(&protocol.Request{ID: id, Type: typ}); err != nil {
			t.Fatal(err)
		}
		resp, err := rd.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if typ == protocol.TypePing {
			if resp.ID != id || resp.Error != "" {
				t.Fatalf("ping after removed types = %+v", resp)
			}
			continue
		}
		if resp.ID != id || resp.Code != protocol.CodeError || !strings.Contains(resp.Error, "unknown request type") {
			t.Fatalf("request type %q = %+v, want an unknown-type error", typ, resp)
		}
	}
}
