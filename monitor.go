package patchindex

import (
	"strings"
	"time"

	"patchindex/internal/obs"
	"patchindex/internal/patch"
	"patchindex/internal/tuning"
)

// Monitor returns the engine's health watchdog (never nil). It is created
// stopped unless Config.Monitor is set; control it with Start/Stop. Its
// time-series back /timeseries and SHOW TIMESERIES, its alert engine
// /alerts and SHOW ALERTS.
func (e *Engine) Monitor() *obs.Monitor { return e.monitor }

// collectSamples is the monitor's engine-specific sample source, run once
// per sampling pass: per-index patch ratio / count / decayed benefit,
// per-table zone-map staleness, and per-fingerprint smoothed latency. All
// sources are internally synchronized — no engine latches are taken, so a
// sampling pass never stalls queries.
func (e *Engine) collectSamples(emit func(name string, v float64)) {
	for _, h := range e.IndexHealth() {
		tag := "nuc"
		if h.Constraint == patch.NearlySorted.String() {
			tag = "nsc"
		}
		base := "index." + h.Table + "." + h.Column + "." + tag + "."
		emit(base+"patch_ratio", h.PatchRatio)
		emit(base+"patches", float64(h.Patches))
		emit(base+"benefit", h.CostSaved)
	}
	for _, name := range e.cat.TableNames() {
		t, err := e.cat.Table(name)
		if err != nil {
			continue // dropped concurrently
		}
		rows, parts := t.ZoneStaleness()
		emit("table."+name+".zone_stale_rows", float64(rows))
		emit("table."+name+".zone_stale_partitions", float64(parts))
	}
	if e.profiler.Enabled() {
		snap := e.profiler.Snapshot()
		var pruned int64
		for _, st := range snap.Statements {
			emit("stmt."+st.Fingerprint+".ewma_nanos", float64(st.EWMANanos))
			pruned += st.PartitionsPruned
		}
		emit("workload.partitions_pruned_total", float64(pruned))
	}
}

// onAlert receives every alert transition from the monitor. A firing
// patch-ratio-drift alert is parsed back into (table, column, constraint)
// and handed to the tuner as a rebuild candidate — the next tuning cycle
// drops and re-creates the index, collapsing the greedily-maintained patch
// set back to the minimal one full discovery finds. Invoked after the
// alerter released its mutex, so taking the tuner's lock here is safe.
func (e *Engine) onAlert(ev obs.AlertEvent) {
	if ev.State != obs.StateFiring || ev.Alert.Rule != "patch_ratio_drift" {
		return
	}
	parts := strings.Split(ev.Alert.Metric, ".")
	if len(parts) != 5 || parts[0] != "index" || parts[4] != "patch_ratio" {
		return
	}
	e.tuner.ReportDrift(tuning.DriftReport{
		Table:            parts[1],
		Column:           parts[2],
		Constraint:       parts[3],
		Ratio:            ev.Alert.Value,
		ProjectedSeconds: ev.Alert.CrossoverSeconds,
	})
}

// onTunerEvent mirrors every tuner journal entry into the alert history as
// an informational event, and refreshes the table's zone maps after a
// successful rebuild so the staleness signal restarts from zero. Invoked
// with the tuner's mutex held — it must not call back into the tuner (the
// alerter's notify runs lock-free and e.onAlert ignores non-firing events,
// so the event posted here cannot loop back into tuner methods).
func (e *Engine) onTunerEvent(tev tuning.Event) {
	metric := ""
	if tev.Table != "" {
		metric = tev.Table + "." + tev.Column + "[" + tev.Constraint + "]"
	}
	msg := tev.Note
	if tev.Err != "" {
		if msg != "" {
			msg += "; "
		}
		msg += "error: " + tev.Err
	}
	e.monitor.Alerter().Event("tuner_"+tev.Action, obs.SeverityInfo, metric, msg, time.Now().UnixNano())
	if tev.Action == "rebuild" && tev.Err == "" {
		if t, err := e.cat.Table(tev.Table); err == nil {
			t.RecomputeZones()
		}
	}
}
