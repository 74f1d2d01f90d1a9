package tuning

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"patchindex/internal/obs"
	"patchindex/internal/plan"
)

// IndexSpec identifies one PatchIndex with everything needed to (re)create
// it. Constraint is the benefit-tracker tag: "nuc" or "nsc".
type IndexSpec struct {
	Table      string  `json:"table"`
	Column     string  `json:"column"`
	Constraint string  `json:"constraint"`
	Kind       string  `json:"kind"` // "identifier", "bitmap", "auto"
	Threshold  float64 `json:"threshold"`
	Descending bool    `json:"descending,omitempty"`
	Force      bool    `json:"-"` // build even above threshold (rollback re-creates)
}

func (s IndexSpec) key() string { return s.Table + "." + s.Column + "[" + s.Constraint + "]" }

// colKey identifies the column an index lives on — the unit DROP PATCHINDEX
// operates at (it removes every constraint on the column).
func (s IndexSpec) colKey() string { return s.Table + "." + s.Column }

// IndexState is the actuator's view of one live index.
type IndexState struct {
	IndexSpec
	Origin      string  `json:"origin"` // "manual" or "auto"
	MemoryBytes int64   `json:"memory_bytes"`
	Rate        float64 `json:"rate"`
}

// Actuator performs index DDL on behalf of the tuner. The engine implements
// it; tests substitute fakes. Implementations must be safe for concurrent
// use and perform their own locking — the tuner holds no engine locks.
type Actuator interface {
	// CreateIndex builds and registers the index. origin is recorded on the
	// index ("auto" for tuner creations, the original origin on rollback).
	// A build whose measured exception rate exceeds spec.Threshold fails
	// unless spec.Force is set; the error is journaled, not fatal.
	CreateIndex(spec IndexSpec, origin string) error
	// DropIndex removes every PatchIndex on table.column.
	DropIndex(table, column string) error
	// Indexes lists the current catalog state.
	Indexes() []IndexState
	// TableRows returns the table's current row count (0 when unknown).
	TableRows(table string) int64
	// Epoch returns the catalog schema-mutation counter, used to detect
	// concurrent manual DDL between planning and actuation.
	Epoch() uint64
}

// Config bounds the tuner. Zero values take the defaults below.
type Config struct {
	// Interval is the background cycle period.
	Interval time.Duration
	// MaxBuildsPerCycle caps index creations per cycle (the AIM-style build
	// budget: discovery scans the table, so creations are rationed).
	MaxBuildsPerCycle int
	// MaxAutoIndexes caps concurrently live auto-created indexes.
	MaxAutoIndexes int
	// MemoryBudgetBytes caps the summed patch payload of auto indexes;
	// a candidate whose estimated footprint would exceed it is rejected.
	MemoryBudgetBytes int64
	// MinScore is the least per-cycle score (estimated cost units saved)
	// that justifies a creation.
	MinScore float64
	// MinTicks is the least profiler tick count before the tuner acts at
	// all — no decisions on a cold observatory.
	MinTicks int64
	// WarmupTicks protects a fresh auto index from dropping: it must live
	// at least this many statement ticks.
	WarmupTicks int64
	// DropIdleTicks: an auto index unused for this many ticks (and past
	// warmup) whose decayed benefit is below DropBenefitFloor is dropped.
	DropIdleTicks int64
	// DropBenefitFloor is the decayed cost-saved level below which an idle
	// index no longer pays for its keep.
	DropBenefitFloor float64
	// CooldownCycles blocks re-creating a candidate for this many cycles
	// after it was dropped or rejected, preventing create/drop flapping.
	CooldownCycles int64
}

// Defaults for Config zero values.
const (
	DefaultInterval          = 2 * time.Second
	DefaultMaxBuildsPerCycle = 1
	DefaultMaxAutoIndexes    = 8
	DefaultMemoryBudget      = 64 << 20
	DefaultMinScore          = 10.0
	DefaultMinTicks          = 16
	DefaultWarmupTicks       = 64
	DefaultDropIdleTicks     = 256
	DefaultDropBenefitFloor  = 1e6
	DefaultCooldownCycles    = 4
	journalCap               = 256
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.MaxBuildsPerCycle <= 0 {
		c.MaxBuildsPerCycle = DefaultMaxBuildsPerCycle
	}
	if c.MaxAutoIndexes <= 0 {
		c.MaxAutoIndexes = DefaultMaxAutoIndexes
	}
	if c.MemoryBudgetBytes <= 0 {
		c.MemoryBudgetBytes = DefaultMemoryBudget
	}
	if c.MinScore <= 0 {
		c.MinScore = DefaultMinScore
	}
	if c.MinTicks <= 0 {
		c.MinTicks = DefaultMinTicks
	}
	if c.WarmupTicks <= 0 {
		c.WarmupTicks = DefaultWarmupTicks
	}
	if c.DropIdleTicks <= 0 {
		c.DropIdleTicks = DefaultDropIdleTicks
	}
	if c.DropBenefitFloor <= 0 {
		c.DropBenefitFloor = DefaultDropBenefitFloor
	}
	if c.CooldownCycles <= 0 {
		c.CooldownCycles = DefaultCooldownCycles
	}
	return c
}

// Event is one journaled tuner action. The journal is a bounded ring; Seq is
// monotonically increasing so truncation is visible.
type Event struct {
	Seq        int64   `json:"seq"`
	Cycle      int64   `json:"cycle"`
	Tick       int64   `json:"tick"`
	Action     string  `json:"action"` // create|drop|rebuild|reject|rollback|start|stop
	Table      string  `json:"table,omitempty"`
	Column     string  `json:"column,omitempty"`
	Constraint string  `json:"constraint,omitempty"`
	Score      float64 `json:"score,omitempty"`
	Note       string  `json:"note,omitempty"`
	Err        string  `json:"err,omitempty"`
}

// Status is the /tuner and SHOW TUNER document.
type Status struct {
	Running           bool        `json:"running"`
	IntervalMillis    int64       `json:"interval_millis"`
	Cycles            int64       `json:"cycles"`
	Creates           int64       `json:"creates"`
	Drops             int64       `json:"drops"`
	Rebuilds          int64       `json:"rebuilds"`
	Rejects           int64       `json:"rejects"`
	Rollbacks         int64       `json:"rollbacks"`
	Tick              int64       `json:"tick"`
	Epoch             uint64      `json:"epoch"`
	AutoLive          int         `json:"auto_live"`
	AutoMemoryBytes   int64       `json:"auto_memory_bytes"`
	MemoryBudgetBytes int64       `json:"memory_budget_bytes"`
	MaxBuildsPerCycle int         `json:"max_builds_per_cycle"`
	MaxAutoIndexes    int         `json:"max_auto_indexes"`
	MinScore          float64     `json:"min_score"`
	Baseline          []IndexSpec `json:"baseline"`
	LastCandidates    []Candidate `json:"last_candidates,omitempty"`
	Journal           []Event     `json:"journal,omitempty"`
}

// CycleResult summarizes one tuning cycle.
type CycleResult struct {
	Cycle      int64       `json:"cycle"`
	Tick       int64       `json:"tick"`
	Candidates []Candidate `json:"candidates,omitempty"`
	Events     []Event     `json:"events,omitempty"`
	Skipped    string      `json:"skipped,omitempty"` // why the cycle did nothing
}

// Tuner is the background self-tuner. Create with New, drive with Start/Stop
// for the background loop or RunCycle for a synchronous step (ALTER TUNER
// NOW, tests, benchmarks).
type Tuner struct {
	cfg  Config
	prof *obs.Profiler
	act  Actuator

	mu       sync.Mutex
	running  bool
	stopCh   chan struct{}
	wg       sync.WaitGroup
	cycle    int64
	seq      int64
	creates  int64
	drops    int64
	rejects  int64
	rollback int64
	// baseline is the index set ROLLBACK restores. It is captured lazily at
	// the tuner's first action (Start, RunCycle or Rollback), not at engine
	// construction, so manual DDL issued before the tuner ever ran counts as
	// pre-tuner state.
	baseline    []IndexSpec
	baselineSet bool
	// createdTick remembers when each auto index (by index key) was built,
	// anchoring warmup.
	createdTick map[string]int64
	// cooldownUntil blocks a candidate key until the named cycle.
	cooldownUntil map[string]int64
	// prevCols is the previous cycle's column accounting; scoring runs on
	// per-cycle deltas so a workload that shifted away stops nominating its
	// old columns (cumulative counters would propose them forever).
	prevCols map[string]obs.ColumnStats
	lastCand []Candidate
	journal  *obs.Ring[Event]
	// drift queues rebuild candidates reported by the monitor's
	// patch-ratio-drift detector, deduplicated by index key. The next cycle
	// services them ahead of (and regardless of) the MinTicks gate: a
	// drifting index needs repair even when the observatory is cold.
	drift    map[string]DriftReport
	rebuilds int64
	// notify, when set, receives every journaled event (the monitor turns
	// them into info alerts). Called with t.mu held — it must not call back
	// into the tuner.
	notify func(Event)
}

// DriftReport is one monitor finding: an index whose patch ratio crossed
// (or is projected to cross) the representation crossover.
type DriftReport struct {
	Table      string  `json:"table"`
	Column     string  `json:"column"`
	Constraint string  `json:"constraint"` // "nuc" or "nsc"
	Ratio      float64 `json:"ratio"`
	// ProjectedSeconds is the detector's time-to-crossover estimate
	// (0 = already past).
	ProjectedSeconds float64 `json:"projected_seconds"`
}

func (r DriftReport) key() string { return r.Table + "." + r.Column + "[" + r.Constraint + "]" }

// New creates a tuner over the profiler and actuator. The background loop is
// not started; call Start, or RunCycle directly. The rollback baseline is
// captured at the tuner's first action.
func New(cfg Config, prof *obs.Profiler, act Actuator) *Tuner {
	return &Tuner{
		cfg:           cfg.withDefaults(),
		prof:          prof,
		act:           act,
		createdTick:   map[string]int64{},
		cooldownUntil: map[string]int64{},
		prevCols:      map[string]obs.ColumnStats{},
		drift:         map[string]DriftReport{},
		journal:       obs.NewRing[Event](journalCap),
	}
}

// SetNotify installs the journal-event callback (see the notify field).
func (t *Tuner) SetNotify(fn func(Event)) {
	t.mu.Lock()
	t.notify = fn
	t.mu.Unlock()
}

// ReportDrift queues an index for rebuild at the next cycle. Duplicate
// reports for the same index coalesce (latest wins), so a firing alert
// re-reported every sample costs one rebuild, not many.
func (t *Tuner) ReportDrift(r DriftReport) {
	t.mu.Lock()
	t.drift[r.key()] = r
	t.mu.Unlock()
}

// ensureBaseline captures the rollback baseline on the tuner's first action.
// Caller holds t.mu.
func (t *Tuner) ensureBaseline() {
	if t.baselineSet {
		return
	}
	t.baselineSet = true
	for _, st := range t.act.Indexes() {
		t.baseline = append(t.baseline, st.IndexSpec)
	}
}

// Config returns the tuner's effective (defaulted) configuration.
func (t *Tuner) Config() Config { return t.cfg }

// Start launches the background loop; no-op if already running.
func (t *Tuner) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running {
		return
	}
	t.ensureBaseline()
	t.running = true
	t.stopCh = make(chan struct{})
	t.logEvent(&Event{Action: "start"})
	t.wg.Add(1)
	go t.loop(t.stopCh)
}

// Stop halts the background loop and waits for the in-flight cycle; no-op if
// not running.
func (t *Tuner) Stop() {
	t.mu.Lock()
	if !t.running {
		t.mu.Unlock()
		return
	}
	t.running = false
	close(t.stopCh)
	t.logEvent(&Event{Action: "stop"})
	t.mu.Unlock()
	t.wg.Wait()
}

// Running reports whether the background loop is active.
func (t *Tuner) Running() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.running
}

func (t *Tuner) loop(stop <-chan struct{}) {
	defer t.wg.Done()
	ticker := time.NewTicker(t.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			t.RunCycle()
		}
	}
}

// RunCycle executes one synchronous tuning cycle: score candidates from the
// observatory, drop stale auto indexes, create the best affordable
// candidates. Safe to call concurrently with the background loop (cycles are
// serialized) and with foreground DDL (the actuator revalidates).
func (t *Tuner) RunCycle() CycleResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureBaseline()
	t.cycle++
	res := CycleResult{Cycle: t.cycle}

	tick := t.prof.Tick()
	res.Tick = tick

	// Drift rebuilds run ahead of the MinTicks gate: the monitor's signal is
	// the index's own patch ratio, not the observatory, so a cold profiler is
	// no reason to leave a degrading index in place.
	if len(t.drift) > 0 {
		res.Events = append(res.Events, t.rebuildDrifted(tick)...)
	}

	if tick < t.cfg.MinTicks {
		res.Skipped = fmt.Sprintf("observatory cold: tick %d < min %d", tick, t.cfg.MinTicks)
		return res
	}

	snap := t.prof.Snapshot()
	epoch := t.act.Epoch()
	states := t.act.Indexes()

	// Score on per-cycle access deltas so candidates reflect the *current*
	// workload, not all history.
	delta := t.deltaColumns(snap.Columns)
	cands := ScoreColumns(withColumns(snap, delta), t.act.TableRows)
	t.lastCand = cands
	res.Candidates = cands

	events := t.dropStale(tick, states)

	// Refresh state if our own drops (or concurrent DDL) moved the catalog.
	if t.act.Epoch() != epoch {
		states = t.act.Indexes()
	}
	events = append(events, t.createWinners(tick, cands, states)...)

	res.Events = append(res.Events, events...)
	return res
}

// rebuildDrifted services the drift queue: each reported index is dropped
// and re-created from scratch, which re-runs full discovery (minimal patch
// set) where incremental maintenance had accumulated a greedy, inflated
// one. DROP PATCHINDEX removes every constraint on the column, so all of
// the column's indexes are re-created, preserving each one's origin.
// Caller holds t.mu.
func (t *Tuner) rebuildDrifted(tick int64) []Event {
	reports := make([]DriftReport, 0, len(t.drift))
	for _, r := range t.drift {
		reports = append(reports, r)
	}
	t.drift = map[string]DriftReport{}
	sort.Slice(reports, func(i, j int) bool { return reports[i].key() < reports[j].key() })

	states := t.act.Indexes()
	byCol := map[string][]IndexState{}
	for _, st := range states {
		byCol[st.colKey()] = append(byCol[st.colKey()], st)
	}

	var events []Event
	rebuiltCols := map[string]bool{}
	for _, r := range reports {
		colKey := r.Table + "." + r.Column
		if rebuiltCols[colKey] {
			continue
		}
		col := byCol[colKey]
		if len(col) == 0 {
			continue // index vanished since the report (manual drop)
		}
		rebuiltCols[colKey] = true
		ev := Event{Action: "rebuild", Tick: tick, Table: r.Table, Column: r.Column,
			Constraint: r.Constraint,
			Note:       fmt.Sprintf("patch ratio %.5f drifted past crossover", r.Ratio)}
		if err := t.act.DropIndex(r.Table, r.Column); err != nil {
			ev.Err = err.Error()
			t.logEvent(&ev)
			events = append(events, ev)
			continue
		}
		for _, st := range col {
			spec := st.IndexSpec
			spec.Force = true // it existed; rebuild even if the ratio is high
			if err := t.act.CreateIndex(spec, st.Origin); err != nil && ev.Err == "" {
				ev.Err = err.Error()
				continue
			}
			if st.Origin == "auto" {
				t.createdTick[spec.key()] = tick // rebuild restarts warmup
			}
		}
		if ev.Err == "" {
			t.rebuilds++
		}
		t.logEvent(&ev)
		events = append(events, ev)
	}
	return events
}

// withColumns returns snap with its column accounting replaced.
func withColumns(snap obs.WorkloadSnapshot, cols []obs.ColumnStats) obs.WorkloadSnapshot {
	snap.Columns = cols
	return snap
}

// deltaColumns subtracts the previous cycle's access counters and remembers
// the current ones. Caller holds t.mu.
func (t *Tuner) deltaColumns(cols []obs.ColumnStats) []obs.ColumnStats {
	out := make([]obs.ColumnStats, 0, len(cols))
	next := make(map[string]obs.ColumnStats, len(cols))
	for _, c := range cols {
		k := c.Table + "." + c.Column
		next[k] = c
		if p, ok := t.prevCols[k]; ok {
			c.PredicateCount -= p.PredicateCount
			c.SortKeyCount -= p.SortKeyCount
			c.GroupByCount -= p.GroupByCount
			c.JoinKeyCount -= p.JoinKeyCount
		}
		out = append(out, c)
	}
	t.prevCols = next
	return out
}

// dropStale drops auto indexes past warmup that are idle and whose decayed
// benefit fell below the keep floor. DROP PATCHINDEX removes every constraint
// on a column, so a column is only dropped when all its auto indexes are
// stale and no manual index shares it. Caller holds t.mu.
func (t *Tuner) dropStale(tick int64, states []IndexState) []Event {
	type colState struct {
		manual    bool
		auto      []IndexState
		staleAuto int
	}
	byCol := map[string]*colState{}
	for _, st := range states {
		cs := byCol[st.colKey()]
		if cs == nil {
			cs = &colState{}
			byCol[st.colKey()] = cs
		}
		if st.Origin != "auto" {
			cs.manual = true
			continue
		}
		cs.auto = append(cs.auto, st)
		if t.isStale(tick, st) {
			cs.staleAuto++
		}
	}
	var events []Event
	for _, st := range states {
		cs := byCol[st.colKey()]
		if st.Origin != "auto" || cs.manual || cs.staleAuto != len(cs.auto) || cs.staleAuto == 0 {
			continue
		}
		// Drop once per column; mark handled.
		cs.staleAuto = 0
		ev := Event{Action: "drop", Table: st.Table, Column: st.Column, Constraint: st.Constraint}
		if err := t.act.DropIndex(st.Table, st.Column); err != nil {
			ev.Err = err.Error()
		} else {
			t.drops++
			for _, a := range cs.auto {
				delete(t.createdTick, a.key())
				t.cooldownUntil[a.key()] = t.cycle + t.cfg.CooldownCycles
			}
			ev.Note = "idle past warmup, decayed benefit below keep floor"
		}
		t.logEvent(&ev)
		events = append(events, ev)
	}
	return events
}

// isStale reports whether one auto index qualifies for dropping at tick.
// Caller holds t.mu.
func (t *Tuner) isStale(tick int64, st IndexState) bool {
	created, ok := t.createdTick[st.key()]
	if !ok {
		// Unknown creation time (e.g. tuner restarted): treat first sighting
		// as creation so warmup still applies.
		t.createdTick[st.key()] = tick
		return false
	}
	if tick-created < t.cfg.WarmupTicks {
		return false
	}
	b, used := t.prof.Benefit().Lookup(st.Table, st.Column, st.Constraint, tick)
	if !used {
		return true // never used since creation and past warmup
	}
	idle := b.LastUsedTick == 0 || tick-b.LastUsedTick >= t.cfg.DropIdleTicks
	return idle && b.CostSaved < t.cfg.DropBenefitFloor
}

// createWinners builds the best-scoring affordable candidates under the
// cycle, count and memory budgets. Caller holds t.mu.
func (t *Tuner) createWinners(tick int64, cands []Candidate, states []IndexState) []Event {
	existing := map[string]bool{}
	autoLive := 0
	var autoBytes int64
	for _, st := range states {
		existing[st.key()] = true
		if st.Origin == "auto" {
			autoLive++
			autoBytes += st.MemoryBytes
		}
	}
	var events []Event
	builds := 0
	for _, c := range cands {
		if builds >= t.cfg.MaxBuildsPerCycle {
			break
		}
		if c.Score < t.cfg.MinScore || existing[c.key()] {
			continue
		}
		if until, ok := t.cooldownUntil[c.key()]; ok && t.cycle < until {
			continue
		}
		rows := t.act.TableRows(c.Table)
		if rows <= 0 {
			continue
		}
		if autoLive >= t.cfg.MaxAutoIndexes {
			ev := Event{Action: "reject", Table: c.Table, Column: c.Column, Constraint: c.Constraint,
				Score: c.Score, Note: fmt.Sprintf("auto index cap %d reached", t.cfg.MaxAutoIndexes)}
			t.rejects++
			t.logEvent(&ev)
			events = append(events, ev)
			t.cooldownUntil[c.key()] = t.cycle + t.cfg.CooldownCycles
			continue
		}
		if est := estimateBytes(rows); autoBytes+est > t.cfg.MemoryBudgetBytes {
			ev := Event{Action: "reject", Table: c.Table, Column: c.Column, Constraint: c.Constraint,
				Score: c.Score, Note: fmt.Sprintf("estimated %d B would exceed memory budget %d B", est, t.cfg.MemoryBudgetBytes)}
			t.rejects++
			t.logEvent(&ev)
			events = append(events, ev)
			t.cooldownUntil[c.key()] = t.cycle + t.cfg.CooldownCycles
			continue
		}
		spec := t.specFor(c, rows)
		ev := Event{Action: "create", Table: c.Table, Column: c.Column, Constraint: c.Constraint, Score: c.Score}
		if err := t.act.CreateIndex(spec, "auto"); err != nil {
			// Typically a threshold violation: the column is not nearly
			// unique/sorted enough. Journal as a reject and back off.
			ev.Action = "reject"
			ev.Err = err.Error()
			t.rejects++
			t.cooldownUntil[c.key()] = t.cycle + t.cfg.CooldownCycles
		} else {
			t.creates++
			builds++
			autoLive++
			autoBytes += estimateBytes(rows)
			t.createdTick[spec.key()] = tick
			ev.Note = fmt.Sprintf("threshold %.2f, %s", spec.Threshold, c.Reason)
		}
		t.logEvent(&ev)
		events = append(events, ev)
	}
	return events
}

// specFor derives the build spec of a candidate: threshold from the cost
// model's sweep, representation auto-chosen at build time.
func (t *Tuner) specFor(c Candidate, rows int64) IndexSpec {
	nuc, nsc := plan.RecommendThresholds(int(rows), 0)
	th := nuc
	if c.Constraint == "nsc" {
		th = nsc
	}
	if th <= 0 {
		th = plan.ShadowExceptionRate
	}
	return IndexSpec{
		Table: c.Table, Column: c.Column, Constraint: c.Constraint,
		Kind: "auto", Threshold: th,
	}
}

// estimateBytes is the pre-build footprint estimate of an index on a table
// of rows rows: identifier patches at the shadow exception rate, capped by
// the bitmap representation (1 bit/row).
func estimateBytes(rows int64) int64 {
	ident := int64(float64(rows) * plan.ShadowExceptionRate * 8)
	bitmap := rows/8 + 64
	if ident < bitmap {
		return ident + 64
	}
	return bitmap
}

// Rollback restores the index set captured when the tuner was created:
// indexes not in the baseline are dropped, baseline indexes that went
// missing are re-created (forced — they existed before, so they are
// presumed buildable). Returns the first error, after attempting everything.
func (t *Tuner) Rollback() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureBaseline()
	t.rollback++
	tick := t.prof.Tick()

	inBaseline := map[string]IndexSpec{}
	baselineCols := map[string]bool{}
	for _, s := range t.baseline {
		inBaseline[s.key()] = s
		baselineCols[s.colKey()] = true
	}
	states := t.act.Indexes()
	current := map[string]bool{}
	var firstErr error

	// Drop columns that hold any non-baseline index. DROP PATCHINDEX is
	// per-column, so baseline constraints on the same column are re-created
	// below.
	droppedCols := map[string]bool{}
	for _, st := range states {
		current[st.key()] = true
		if _, ok := inBaseline[st.key()]; ok {
			continue
		}
		if droppedCols[st.colKey()] {
			continue
		}
		droppedCols[st.colKey()] = true
		ev := Event{Action: "rollback", Tick: tick, Table: st.Table, Column: st.Column,
			Constraint: st.Constraint, Note: "drop non-baseline index"}
		if err := t.act.DropIndex(st.Table, st.Column); err != nil {
			ev.Err = err.Error()
			if firstErr == nil {
				firstErr = err
			}
		}
		delete(t.createdTick, st.key())
		t.logEvent(&ev)
	}
	// Re-create baseline indexes that are missing or whose column we just
	// dropped.
	for _, s := range t.baseline {
		if current[s.key()] && !droppedCols[s.colKey()] {
			continue
		}
		spec := s
		spec.Force = true
		ev := Event{Action: "rollback", Tick: tick, Table: s.Table, Column: s.Column,
			Constraint: s.Constraint, Note: "re-create baseline index"}
		if err := t.act.CreateIndex(spec, "manual"); err != nil {
			ev.Err = err.Error()
			if firstErr == nil {
				firstErr = err
			}
		}
		t.logEvent(&ev)
	}
	// A fresh start: forget hysteresis state so the next cycles re-evaluate.
	t.cooldownUntil = map[string]int64{}
	return firstErr
}

// logEvent appends to the bounded journal ring. Caller holds t.mu.
func (t *Tuner) logEvent(ev *Event) {
	t.seq++
	ev.Seq = t.seq
	ev.Cycle = t.cycle
	if ev.Tick == 0 {
		ev.Tick = t.prof.Tick()
	}
	e := *ev
	t.journal.Add(&e)
	if t.notify != nil {
		t.notify(*ev)
	}
}

// Journal returns a copy of the journaled events, oldest first. Events are
// added under t.mu, so the ring's snapshot is already in Seq order.
func (t *Tuner) Journal() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.journal.Values()
}

// Status snapshots the tuner for /tuner and SHOW TUNER.
func (t *Tuner) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{
		Running:           t.running,
		IntervalMillis:    t.cfg.Interval.Milliseconds(),
		Cycles:            t.cycle,
		Creates:           t.creates,
		Drops:             t.drops,
		Rebuilds:          t.rebuilds,
		Rejects:           t.rejects,
		Rollbacks:         t.rollback,
		Tick:              t.prof.Tick(),
		Epoch:             t.act.Epoch(),
		MemoryBudgetBytes: t.cfg.MemoryBudgetBytes,
		MaxBuildsPerCycle: t.cfg.MaxBuildsPerCycle,
		MaxAutoIndexes:    t.cfg.MaxAutoIndexes,
		MinScore:          t.cfg.MinScore,
		Baseline:          append([]IndexSpec(nil), t.baseline...),
		LastCandidates:    append([]Candidate(nil), t.lastCand...),
		Journal:           t.journal.Values(),
	}
	for _, s := range t.act.Indexes() {
		if s.Origin == "auto" {
			st.AutoLive++
			st.AutoMemoryBytes += s.MemoryBytes
		}
	}
	return st
}
