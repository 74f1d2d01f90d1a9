package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"patchindex"
	"patchindex/internal/obs"
)

// monitoredServer starts a server whose engine has the watchdog wired to a
// synthetic clock, with one engine series already past a rule threshold.
func monitoredServer(t *testing.T) *Server {
	t.Helper()
	eng, err := patchindex.New(patchindex.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s := startServer(t, Config{Engine: eng})

	m := eng.Monitor()
	now := int64(time.Second)
	m.SetClock(func() int64 {
		now += int64(time.Second)
		return now
	})
	// Synthesize a drifted index ratio directly so the default rule fires,
	// then sample twice for slope state.
	m.Series().Get("index.emp.s.nsc.patch_ratio").Observe(now, 0.5)
	m.SampleNow()
	m.Series().Get("index.emp.s.nsc.patch_ratio").Observe(now+int64(time.Second), 0.5)
	m.SampleNow()
	return s
}

func TestHTTPAlertsEndpoint(t *testing.T) {
	s := monitoredServer(t)

	code, body, err := httpGet(s, "/alerts")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /alerts: code=%d err=%v", code, err)
	}
	var doc struct {
		Alerts  []obs.Alert      `json:"alerts"`
		History []obs.AlertEvent `json:"history"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/alerts is not JSON: %v\n%s", err, body)
	}
	found := false
	for _, al := range doc.Alerts {
		if al.Rule == "patch_ratio_drift" && al.State == obs.StateFiring {
			found = true
		}
	}
	if !found {
		t.Fatalf("/alerts has no firing patch_ratio_drift: %s", body)
	}
	if len(doc.History) == 0 {
		t.Fatalf("/alerts history empty: %s", body)
	}

	code, body, err = httpGet(s, "/alerts?format=text")
	if err != nil || code != http.StatusOK || !strings.HasPrefix(body, "alerts:") {
		t.Fatalf("GET /alerts?format=text: code=%d err=%v body=%q", code, err, body)
	}
}

func TestHTTPTimeseriesEndpoint(t *testing.T) {
	s := monitoredServer(t)

	// No ?metric= lists the catalog.
	code, body, err := httpGet(s, "/timeseries")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /timeseries: code=%d err=%v", code, err)
	}
	var catalog struct {
		Metrics []string `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &catalog); err != nil {
		t.Fatalf("/timeseries catalog is not JSON: %v\n%s", err, body)
	}
	if len(catalog.Metrics) == 0 {
		t.Fatalf("/timeseries catalog empty: %s", body)
	}

	code, body, err = httpGet(s, "/timeseries?metric=index.emp.s.nsc.patch_ratio")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /timeseries?metric=: code=%d err=%v\n%s", code, err, body)
	}
	var doc struct {
		Metric string      `json:"metric"`
		Tier   string      `json:"tier"`
		Points []obs.Point `json:"points"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/timeseries doc is not JSON: %v\n%s", err, body)
	}
	if doc.Metric != "index.emp.s.nsc.patch_ratio" || len(doc.Points) == 0 {
		t.Fatalf("/timeseries doc = %+v", doc)
	}

	if code, _, err = httpGet(s, "/timeseries?metric=no.such.metric"); err != nil || code != http.StatusNotFound {
		t.Fatalf("unknown metric: code=%d err=%v, want 404", code, err)
	}
	if code, _, err = httpGet(s, "/timeseries?metric=index.emp.s.nsc.patch_ratio&window=bogus"); err != nil || code != http.StatusBadRequest {
		t.Fatalf("bad window: code=%d err=%v, want 400", code, err)
	}
}

func TestShowAlertsOverWire(t *testing.T) {
	s := monitoredServer(t)
	c := dial(t, s)
	res, err := c.Query("SHOW ALERTS")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) == 0 || res.Columns[0] != "rule" {
		t.Fatalf("SHOW ALERTS columns = %v", res.Columns)
	}
	found := false
	for _, row := range res.Rows {
		if row[0] == "patch_ratio_drift" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SHOW ALERTS rows missing drift alert: %v", res.Rows)
	}
}

// TestServerQueueGauges checks the admission gauges the queue_depth rule
// watches are registered and move with traffic.
func TestServerQueueGauges(t *testing.T) {
	s := monitoredServer(t)
	c := dial(t, s)
	if _, err := c.Query("SHOW TABLES"); err != nil {
		t.Fatal(err)
	}
	snap := s.eng.Metrics().Snapshot()
	if _, ok := snap.Gauges["server_queries_queued"]; !ok {
		t.Fatalf("server_queries_queued gauge missing: %v", snap.Gauges)
	}
	if _, ok := snap.Gauges["server_queries_in_flight"]; !ok {
		t.Fatalf("server_queries_in_flight gauge missing: %v", snap.Gauges)
	}
	if got := snap.Gauges["server_queries_in_flight"]; got != 0 {
		t.Fatalf("in-flight gauge = %d after queries drained, want 0", got)
	}
}
