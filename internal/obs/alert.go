package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Alert severities, mildest first.
const (
	SeverityInfo = "info"
	SeverityWarn = "warn"
	SeverityCrit = "crit"
)

// Rule kinds.
const (
	// KindAbove fires while the latest sample is at or above Threshold.
	KindAbove = "above"
	// KindDrift fires when the series is at Target, or trending toward it
	// with a projected crossover within HorizonSeconds (EWMA slope).
	KindDrift = "drift"
	// KindRatio fires when a fast EWMA of the series reaches Threshold
	// times its slow trailing baseline (latency regression).
	KindRatio = "ratio"
	// KindRate fires when the per-second increase of a (counter) series
	// reaches Threshold.
	KindRate = "rate"
)

// DefaultCrossoverRate mirrors patch.CrossoverRate (1/64), the exception
// rate at which the bitmap representation — and with it the profitability
// of patch-union rewrites — crosses over. Kept as a literal so obs stays
// below the patch package in the dependency order.
const DefaultCrossoverRate = 1.0 / 64.0

// Rule is one typed alerting rule evaluated against every series whose name
// matches Metric (a path.Match glob; '.' is not special, so
// "index.*.patch_ratio" matches "index.emp.s.nsc.patch_ratio").
type Rule struct {
	Name     string `json:"name"`
	Metric   string `json:"metric"`
	Kind     string `json:"kind"`
	Severity string `json:"severity"`
	// Threshold is the fire level (above), the fast/baseline factor
	// (ratio), or the per-second rate (rate).
	Threshold float64 `json:"threshold,omitempty"`
	// Target and HorizonSeconds parameterize drift rules: fire when the
	// series would reach Target within HorizonSeconds at its current trend.
	Target         float64 `json:"target,omitempty"`
	HorizonSeconds float64 `json:"horizon_seconds,omitempty"`
	// Resolve is the hysteresis floor: a firing alert resolves only once
	// the observed level falls to Resolve or below (default: half the fire
	// level), so a series hovering at the threshold cannot flap.
	Resolve float64 `json:"resolve,omitempty"`
	// FireAfter / ResolveAfter are consecutive-evaluation debounce counts
	// (defaults 1 and 2).
	FireAfter    int `json:"fire_after,omitempty"`
	ResolveAfter int `json:"resolve_after,omitempty"`
}

// Validate checks the rule's kind, severity, and pattern.
func (r Rule) Validate() error {
	switch r.Kind {
	case KindAbove, KindDrift, KindRatio, KindRate:
	default:
		return fmt.Errorf("obs: rule %q: unknown kind %q", r.Name, r.Kind)
	}
	switch r.Severity {
	case SeverityInfo, SeverityWarn, SeverityCrit:
	default:
		return fmt.Errorf("obs: rule %q: unknown severity %q", r.Name, r.Severity)
	}
	if r.Name == "" || r.Metric == "" {
		return fmt.Errorf("obs: rule needs name and metric")
	}
	if _, err := path.Match(r.Metric, "x"); err != nil {
		return fmt.Errorf("obs: rule %q: bad metric pattern: %w", r.Name, err)
	}
	return nil
}

// fireLevel is the nominal level the rule fires at, used to derive the
// default resolve floor.
func (r Rule) fireLevel() float64 {
	if r.Kind == KindDrift {
		return r.Target
	}
	return r.Threshold
}

func (r Rule) resolveLevel() float64 {
	if r.Resolve > 0 {
		return r.Resolve
	}
	return r.fireLevel() / 2
}

func (r Rule) fireAfter() int {
	if r.FireAfter > 0 {
		return r.FireAfter
	}
	return 1
}

func (r Rule) resolveAfter() int {
	if r.ResolveAfter > 0 {
		return r.ResolveAfter
	}
	return 2
}

// DefaultRules are the built-in watchdog rules:
//   - patch_ratio_drift: a PatchIndex's exception ratio is past the 1/64
//     crossover, or trending to cross it within an hour — the index is
//     degrading and a rebuild (or threshold re-tune) is due.
//   - latency_regression: a statement fingerprint's smoothed latency
//     reached 2x its trailing baseline.
//   - admission_pressure: the server is shedding queries (queue full).
//   - queue_depth: the admission queue is persistently deep.
//   - tenant_shed_rate: a QoS tenant is being shed (rate limit or
//     in-flight cap) at a sustained rate — its limits need a review.
//   - cache_thrash: the storage cache is evicting payloads at a sustained
//     rate — the working set exceeds the byte budget and scans are paying
//     repeated decode faults; the budget needs a raise (or the workload a
//     narrower projection).
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "patch_ratio_drift", Metric: "index.*.patch_ratio",
			Kind: KindDrift, Severity: SeverityWarn,
			Target: DefaultCrossoverRate, HorizonSeconds: 3600,
			Resolve: DefaultCrossoverRate / 2, FireAfter: 1, ResolveAfter: 2,
		},
		{
			Name: "latency_regression", Metric: "stmt.*.ewma_nanos",
			Kind: KindRatio, Severity: SeverityWarn,
			Threshold: 2.0, Resolve: 1.25, FireAfter: 2, ResolveAfter: 3,
		},
		{
			Name: "admission_pressure", Metric: "counter.server_queries_shed_total",
			Kind: KindRate, Severity: SeverityCrit,
			Threshold: 1, Resolve: 0.1, FireAfter: 1, ResolveAfter: 3,
		},
		{
			Name: "queue_depth", Metric: "gauge.server_queries_queued",
			Kind: KindAbove, Severity: SeverityWarn,
			Threshold: 16, Resolve: 4, FireAfter: 2, ResolveAfter: 3,
		},
		{
			Name: "tenant_shed_rate", Metric: "counter.tenant.*.shed",
			Kind: KindRate, Severity: SeverityWarn,
			Threshold: 1, Resolve: 0.1, FireAfter: 2, ResolveAfter: 3,
		},
		{
			Name: "cache_thrash", Metric: "counter.storage_cache_evictions_total",
			Kind: KindRate, Severity: SeverityWarn,
			Threshold: 64, Resolve: 8, FireAfter: 2, ResolveAfter: 3,
		},
	}
}

// ParseRules decodes a JSON rule list and validates every rule.
func ParseRules(data []byte) ([]Rule, error) {
	var rules []Rule
	if err := json.Unmarshal(data, &rules); err != nil {
		return nil, fmt.Errorf("obs: parsing alert rules: %w", err)
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// LoadRules reads a JSON rule file (the patchserver -alert-rules flag).
func LoadRules(pathname string) ([]Rule, error) {
	data, err := os.ReadFile(pathname)
	if err != nil {
		return nil, err
	}
	return ParseRules(data)
}

// Alert states.
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Alert is the current standing of one (rule, series) pair.
type Alert struct {
	Rule     string `json:"rule"`
	Metric   string `json:"metric"`
	Severity string `json:"severity"`
	State    string `json:"state"`
	// Value is the level observed at the last evaluation; Threshold the
	// level the rule fires at (Target for drift rules).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// CrossoverSeconds is the drift detector's projected time until Value
	// reaches Threshold (0 = already past, -1 = not applicable/flat).
	CrossoverSeconds float64 `json:"crossover_seconds,omitempty"`
	Message          string  `json:"message,omitempty"`
	FiredUnixNanos   int64   `json:"fired_unix_nanos,omitempty"`
	ResolvedUnix     int64   `json:"resolved_unix_nanos,omitempty"`
}

// AlertEvent is one history-ring entry: a firing/resolved transition, or a
// one-shot informational event (tuner journal actions).
type AlertEvent struct {
	Seq       uint64 `json:"seq"`
	UnixNanos int64  `json:"t"`
	State     string `json:"state"` // firing|resolved|event
	Alert     Alert  `json:"alert"`
}

// alertState is the engine's per-(rule, series) evaluation state.
type alertState struct {
	rule    Rule
	metric  string
	firing  bool
	breach  int // consecutive breaching evaluations
	clear   int // consecutive clear evaluations while firing
	firedAt int64

	slope    slopeTracker
	baseline baselineTracker
	rate     rateTracker

	last Alert // last rendered standing
}

// alertHistoryCap bounds the transition/event history ring.
const alertHistoryCap = 256

// Alerter evaluates rules against a SeriesSet and keeps the firing set plus
// a bounded transition history. Evaluation runs on the sampler goroutine;
// readers (HTTP, SQL, the wire protocol) snapshot under a short mutex.
type Alerter struct {
	mu     sync.Mutex
	rules  []Rule
	states map[string]*alertState

	seq     atomic.Uint64
	history *Ring[AlertEvent]

	notify func(AlertEvent)
}

// NewAlerter creates an alert engine over the given rules (invalid rules
// are dropped; nil means DefaultRules).
func NewAlerter(rules []Rule) *Alerter {
	if rules == nil {
		rules = DefaultRules()
	}
	valid := make([]Rule, 0, len(rules))
	for _, r := range rules {
		if r.Validate() == nil {
			valid = append(valid, r)
		}
	}
	return &Alerter{
		rules:   valid,
		states:  map[string]*alertState{},
		history: NewRing[AlertEvent](alertHistoryCap),
	}
}

// Rules returns a copy of the active rule set.
func (a *Alerter) Rules() []Rule {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Rule(nil), a.rules...)
}

// SetNotify installs a transition callback, invoked after the alerter's
// mutex is released for every firing/resolved transition and informational
// event — so the callback may take other subsystem locks (the engine's
// monitor feeds drift alerts to the tuner through it) without ordering
// hazards against callers that hold those locks while posting events here.
func (a *Alerter) SetNotify(fn func(AlertEvent)) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.notify = fn
	a.mu.Unlock()
}

// record publishes a transition into the history ring and returns it for
// post-unlock notification. Caller holds a.mu.
func (a *Alerter) record(ev AlertEvent) AlertEvent {
	ev.Seq = a.seq.Add(1)
	a.history.Add(&ev)
	return ev
}

// Event appends a one-shot informational entry to the history (tuner
// journal actions surface through here). It does not create a stateful
// alert.
func (a *Alerter) Event(rule, severity, metric, message string, unixNanos int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	ev := a.record(AlertEvent{
		UnixNanos: unixNanos,
		State:     "event",
		Alert: Alert{
			Rule: rule, Metric: metric, Severity: severity,
			State: "event", Message: message,
		},
	})
	notify := a.notify
	a.mu.Unlock()
	if notify != nil {
		notify(ev)
	}
}

// History returns up to max transition/event entries, newest first.
func (a *Alerter) History(max int) []AlertEvent {
	if a == nil {
		return nil
	}
	out := a.history.Values()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Alerts returns the standing of every evaluated (rule, series) pair that
// has ever fired, firing first, then by severity and name — the /alerts and
// SHOW ALERTS document body.
func (a *Alerter) Alerts() []Alert {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Alert, 0, len(a.states))
	for _, st := range a.states {
		if st.last.State == "" {
			continue // evaluated but never fired: not worth listing
		}
		out = append(out, st.last)
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i].State == StateFiring) != (out[j].State == StateFiring) {
			return out[i].State == StateFiring
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// Firing returns only the currently firing alerts.
func (a *Alerter) Firing() []Alert {
	all := a.Alerts()
	out := all[:0]
	for _, al := range all {
		if al.State == StateFiring {
			out = append(out, al)
		}
	}
	return out
}

// Evaluate runs every rule against every matching series at the given time.
// Called once per sampler tick.
func (a *Alerter) Evaluate(set *SeriesSet, nowNanos int64) {
	if a == nil || set == nil {
		return
	}
	names := set.Names()
	var fired []AlertEvent
	a.mu.Lock()
	for i := range a.rules {
		r := &a.rules[i]
		for _, name := range names {
			if ok, _ := path.Match(r.Metric, name); !ok {
				continue
			}
			p, ok := set.Lookup(name).Latest()
			if !ok {
				continue
			}
			key := r.Name + "|" + name
			st := a.states[key]
			if st == nil {
				st = &alertState{rule: *r, metric: name}
				a.states[key] = st
			}
			if ev, transitioned := a.step(st, p, nowNanos); transitioned {
				fired = append(fired, ev)
			}
		}
	}
	notify := a.notify
	a.mu.Unlock()
	if notify != nil {
		for _, ev := range fired {
			notify(ev)
		}
	}
}

// step feeds one sample into a state's detectors and advances the firing/
// resolved lifecycle, returning the recorded transition (if any). Caller
// holds a.mu.
func (a *Alerter) step(st *alertState, p Point, nowNanos int64) (AlertEvent, bool) {
	r := st.rule
	value := p.Last
	crossover := -1.0
	breach, clear := false, false

	switch r.Kind {
	case KindAbove:
		breach = value >= r.Threshold
		clear = value <= r.resolveLevel()
	case KindDrift:
		st.slope.observe(p.UnixNanos, p.Last)
		proj := st.slope.projectedSeconds(r.Target)
		if !math.IsInf(proj, 1) {
			crossover = proj
		}
		breach = value >= r.Target || (crossover >= 0 && crossover <= r.HorizonSeconds)
		clear = value <= r.resolveLevel() && (crossover < 0 || crossover > r.HorizonSeconds)
	case KindRatio:
		st.baseline.observe(p.Last)
		ratio, established := st.baseline.ratio()
		value = ratio
		breach = established && ratio >= r.Threshold
		resolve := r.Resolve
		if resolve <= 0 {
			resolve = 1 + (r.Threshold-1)/2
		}
		clear = !established || ratio <= resolve
	case KindRate:
		st.rate.observe(p.UnixNanos, p.Last)
		value = st.rate.rate
		breach = st.rate.valid && st.rate.rate >= r.Threshold
		clear = st.rate.valid && st.rate.rate <= r.resolveLevel()
	}

	if breach {
		st.breach++
		st.clear = 0
	} else {
		st.breach = 0
		if clear {
			st.clear++
		}
	}

	transition := ""
	if !st.firing && st.breach >= r.fireAfter() {
		st.firing = true
		st.firedAt = nowNanos
		transition = StateFiring
	} else if st.firing && st.clear >= r.resolveAfter() {
		st.firing = false
		transition = StateResolved
	}

	al := Alert{
		Rule: r.Name, Metric: st.metric, Severity: r.Severity,
		Value: value, Threshold: r.fireLevel(), CrossoverSeconds: crossover,
		FiredUnixNanos: st.firedAt,
	}
	if st.firing {
		al.State = StateFiring
	} else if st.firedAt != 0 {
		al.State = StateResolved
		al.ResolvedUnix = st.last.ResolvedUnix
		if transition == StateResolved {
			al.ResolvedUnix = nowNanos
		}
	}
	al.Message = formatAlertMessage(r, al)
	st.last = al
	if transition != "" {
		return a.record(AlertEvent{UnixNanos: nowNanos, State: transition, Alert: al}), true
	}
	return AlertEvent{}, false
}

// formatAlertMessage renders the human line shown in /alerts, SHOW ALERTS
// and \alerts. Drift messages name the projected crossover.
func formatAlertMessage(r Rule, al Alert) string {
	switch r.Kind {
	case KindDrift:
		switch {
		case al.Value >= r.Target:
			return fmt.Sprintf("%s = %.5f is past the %.5f crossover", al.Metric, al.Value, r.Target)
		case al.CrossoverSeconds >= 0:
			return fmt.Sprintf("%s = %.5f trending to cross %.5f in %s",
				al.Metric, al.Value, r.Target, (time.Duration(al.CrossoverSeconds * float64(time.Second))).Round(time.Second))
		default:
			return fmt.Sprintf("%s = %.5f below the %.5f crossover, flat trend", al.Metric, al.Value, r.Target)
		}
	case KindRatio:
		return fmt.Sprintf("%s at %.2fx its trailing baseline (fire at %.2fx)", al.Metric, al.Value, r.Threshold)
	case KindRate:
		return fmt.Sprintf("%s increasing at %.2f/s (fire at %.2f/s)", al.Metric, al.Value, r.Threshold)
	default:
		return fmt.Sprintf("%s = %.2f (fire at %.2f)", al.Metric, al.Value, r.Threshold)
	}
}
