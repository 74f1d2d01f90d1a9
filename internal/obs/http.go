package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// MetricsHandler serves the registry in plain-text exposition format
// (Prometheus-compatible) — mount at /metrics.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// StatsHandler serves a JSON snapshot of the registry — mount at /stats.
func StatsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// QuerySummary is one /queries entry: a completed statement's profile
// without its span tree (fetch /trace/<id> for the spans).
type QuerySummary struct {
	ID  uint64 `json:"id"`
	SQL string `json:"sql"`
	// Fingerprint joins this entry to its /workload aggregate ("" when
	// fingerprinting was off when the statement ran).
	Fingerprint string        `json:"fingerprint,omitempty"`
	SessionID   uint64        `json:"session_id,omitempty"`
	Client      string        `json:"client,omitempty"`
	Start       time.Time     `json:"start"`
	Duration    time.Duration `json:"duration_ns"`
	Rows        int64         `json:"rows"`
	PatchHits   int64         `json:"patch_hits"`
	Error       string        `json:"error,omitempty"`
	Sampled     bool          `json:"sampled"`
	Spans       int           `json:"spans"`
}

// Summarize strips a trace down to its /queries row.
func Summarize(t *Trace) QuerySummary {
	fp := ""
	if t.Fingerprint != 0 {
		fp = fmt.Sprintf("%016x", t.Fingerprint)
	}
	return QuerySummary{
		ID:          t.ID,
		SQL:         t.SQL,
		Fingerprint: fp,
		SessionID:   t.SessionID,
		Client:      t.Client,
		Start:       t.Start,
		Duration:    t.Duration,
		Rows:        t.Rows,
		PatchHits:   t.PatchHits,
		Error:       t.Error,
		Sampled:     t.Sampled,
		Spans:       len(t.Spans),
	}
}

// maxQueryListing clamps the ?n= parameter on listing endpoints so a
// malformed or hostile value cannot request an unbounded response.
const maxQueryListing = 1000

// clampN parses a ?n= style parameter: non-numeric or non-positive values
// fall back to def, and the result never exceeds maxQueryListing.
func clampN(q string, def int) int {
	n := def
	if q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	if n > maxQueryListing {
		n = maxQueryListing
	}
	return n
}

// QueriesHandler serves the recent query history as a JSON array, newest
// first — mount at /queries. ?n=N limits the count (default 50, clamped to
// maxQueryListing).
func QueriesHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := clampN(r.URL.Query().Get("n"), 50)
		traces := t.Recent(n)
		out := make([]QuerySummary, len(traces))
		for i, tr := range traces {
			out[i] = Summarize(tr)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}

// TraceHandler serves one completed trace — mount at /trace/ (note the
// trailing slash; the id is the rest of the path). The default response is
// the full trace JSON including the span tree; ?format=chrome emits the
// Chrome trace-event (catapult) document for chrome://tracing / Perfetto.
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idText := strings.TrimPrefix(r.URL.Path, "/trace/")
		id, err := strconv.ParseUint(idText, 10, 64)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		tr := t.Get(id)
		if tr == nil {
			http.Error(w, "trace not found (evicted or never recorded)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("format") == "chrome" {
			_ = tr.WriteChrome(w)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tr)
	})
}

// WorkloadHandler serves the workload profiler snapshot as JSON — mount at
// /workload. ?n=N bounds the statement list.
func WorkloadHandler(p *Profiler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := p.Snapshot()
		n := clampN(r.URL.Query().Get("n"), maxQueryListing)
		if len(snap.Statements) > n {
			snap.Statements = snap.Statements[:n]
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	})
}

// timeseriesDoc is the /timeseries response: either the series catalog
// (no ?metric=) or one series' points.
type timeseriesDoc struct {
	Metric   string   `json:"metric,omitempty"`
	Tier     string   `json:"tier,omitempty"`
	WindowMS int64    `json:"window_ms,omitempty"`
	Points   []Point  `json:"points,omitempty"`
	Metrics  []string `json:"metrics,omitempty"`
}

// TimeseriesHandler serves the sampler's retained history — mount at
// /timeseries. Without ?metric= it lists the series catalog; with it,
// ?window= (Go duration, e.g. 5m) selects the trailing window and picks the
// coarsest tier that covers it (?tier=raw|10s|5m overrides).
func TimeseriesHandler(m *Monitor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		set := m.Series()
		metric := r.URL.Query().Get("metric")
		if metric == "" {
			_ = enc.Encode(timeseriesDoc{Metrics: set.Names()})
			return
		}
		var window time.Duration
		if q := r.URL.Query().Get("window"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d < 0 {
				http.Error(w, "bad window (want a Go duration, e.g. 5m)", http.StatusBadRequest)
				return
			}
			window = d
		}
		tier := r.URL.Query().Get("tier")
		pts := set.Window(metric, tier, window, time.Now().UnixNano(), m.Interval())
		if pts == nil && set.Lookup(metric) == nil {
			http.Error(w, "unknown metric (drop ?metric= to list)", http.StatusNotFound)
			return
		}
		if tier == "" {
			if window <= 0 {
				tier = TierRaw
			} else {
				tier = TierFor(window, m.Interval(), set.RawCap())
			}
		}
		_ = enc.Encode(timeseriesDoc{
			Metric: metric, Tier: tier, WindowMS: window.Milliseconds(), Points: pts,
		})
	})
}

// alertsDoc is the /alerts response: standing alerts plus recent
// transition/event history.
type alertsDoc struct {
	Alerts  []Alert      `json:"alerts"`
	History []AlertEvent `json:"history,omitempty"`
}

// AlertsHandler serves the alert engine state as JSON — mount at /alerts.
// ?n=N bounds the history (default 50).
func AlertsHandler(a *Alerter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := clampN(r.URL.Query().Get("n"), 50)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(alertsDoc{Alerts: a.Alerts(), History: a.History(n)})
	})
}

// Handler mounts MetricsHandler at /metrics and StatsHandler at /stats on a
// fresh mux, ready for http.ListenAndServe. When tracer is non-nil the
// query-history endpoints /queries and /trace/<id> are mounted too.
func Handler(r *Registry, tracer ...*Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(r))
	mux.Handle("/stats", StatsHandler(r))
	if len(tracer) > 0 && tracer[0] != nil {
		mux.Handle("/queries", QueriesHandler(tracer[0]))
		mux.Handle("/trace/", TraceHandler(tracer[0]))
	}
	return mux
}
