package patchindex

import (
	"fmt"
	"os"
	"strings"

	"patchindex/internal/discovery"
	"patchindex/internal/patch"
	"patchindex/internal/sql"
	"patchindex/internal/tuning"
	"patchindex/internal/wal"
)

// Tuner returns the engine's background self-tuner (never nil). It is
// created stopped unless Config.AutoTune is set; control it with Start/Stop/
// RunCycle/Rollback, or via SQL: ALTER TUNER START|STOP|NOW|ROLLBACK and
// SHOW TUNER.
func (e *Engine) Tuner() *tuning.Tuner { return e.tuner }

// DropPatchIndex removes every PatchIndex on table.column — the programmatic
// counterpart of DROP PATCHINDEX, sharing its catalog, materialization and
// WAL handling. The tuner drops through here.
func (e *Engine) DropPatchIndex(table, column string) error {
	release := e.acquireLatches(nil, []string{table})
	defer release()
	return e.dropPatchIndexLatched(table, column)
}

// dropPatchIndexLatched is DropPatchIndex with the table's exclusive latch
// already held by the caller (the statement dispatcher).
func (e *Engine) dropPatchIndexLatched(table, column string) error {
	if err := e.cat.DropIndex(table, column); err != nil {
		return err
	}
	if e.log != nil {
		for _, c := range []patch.Constraint{patch.NearlyUnique, patch.NearlySorted} {
			os.Remove(e.indexPath(table, column, c))
		}
		if err := e.log.AppendDropIndex(wal.DropIndexRecord{Table: table, Column: column}); err != nil {
			return err
		}
	}
	return nil
}

// constraintTag maps a patch constraint to its benefit-tracker tag.
func constraintTag(c patch.Constraint) string {
	if c == patch.NearlySorted {
		return "nsc"
	}
	return "nuc"
}

// kindFromString maps the SQL-level kind name to the patch representation
// (unknown names fall back to auto). CREATE PATCHINDEX and the tuner both
// resolve KIND through it.
func kindFromString(s string) patch.Kind {
	switch s {
	case "identifier":
		return patch.Identifier
	case "bitmap":
		return patch.Bitmap
	default:
		return patch.Auto
	}
}

// engineActuator adapts the Engine's index DDL to the tuner's Actuator
// interface. Every method performs its own latching; the tuner holds no
// engine locks while calling in.
type engineActuator struct{ e *Engine }

func (a engineActuator) CreateIndex(spec tuning.IndexSpec, origin string) error {
	c := patch.NearlyUnique
	if spec.Constraint == "nsc" {
		c = patch.NearlySorted
	}
	ix, err := a.e.CreatePatchIndex(spec.Table, spec.Column, c, discovery.BuildOptions{
		Kind:       kindFromString(spec.Kind),
		Threshold:  spec.Threshold,
		Descending: spec.Descending,
		Force:      spec.Force,
	})
	if err != nil {
		return err
	}
	ix.SetOrigin(origin)
	return nil
}

func (a engineActuator) DropIndex(table, column string) error {
	return a.e.DropPatchIndex(table, column)
}

func (a engineActuator) Indexes() []tuning.IndexState {
	indexes := a.e.cat.Indexes()
	out := make([]tuning.IndexState, 0, len(indexes))
	for _, ix := range indexes {
		out = append(out, tuning.IndexState{
			IndexSpec: tuning.IndexSpec{
				Table:      ix.Table(),
				Column:     ix.Column(),
				Constraint: constraintTag(ix.Constraint()),
				Kind:       ix.RequestedKind().String(),
				Threshold:  ix.Threshold(),
				Descending: ix.Descending(),
			},
			Origin:      ix.Origin(),
			MemoryBytes: int64(ix.MemoryBytes()),
			Rate:        ix.ExceptionRate(),
		})
	}
	return out
}

func (a engineActuator) TableRows(table string) int64 {
	release := a.e.acquireLatches([]string{table}, nil)
	defer release()
	t, err := a.e.cat.Table(table)
	if err != nil {
		return 0
	}
	return int64(t.NumRows())
}

func (a engineActuator) Epoch() uint64 { return a.e.cat.Epoch() }

// runAlterTuner executes ALTER TUNER START|STOP|NOW|ROLLBACK.
func (e *Engine) runAlterTuner(s *sql.AlterTunerStmt) (*Result, error) {
	switch s.Action {
	case "start":
		e.tuner.Start()
		return &Result{Message: "tuner started"}, nil
	case "stop":
		e.tuner.Stop()
		return &Result{Message: "tuner stopped"}, nil
	case "now":
		res := e.tuner.RunCycle()
		if res.Skipped != "" {
			return &Result{Message: fmt.Sprintf("tuner cycle %d skipped: %s", res.Cycle, res.Skipped)}, nil
		}
		var acts []string
		for _, ev := range res.Events {
			acts = append(acts, fmt.Sprintf("%s %s.%s[%s]", ev.Action, ev.Table, ev.Column, ev.Constraint))
		}
		msg := fmt.Sprintf("tuner cycle %d: %d candidates, %d actions", res.Cycle, len(res.Candidates), len(res.Events))
		if len(acts) > 0 {
			msg += ": " + strings.Join(acts, ", ")
		}
		return &Result{Message: msg}, nil
	case "rollback":
		if err := e.tuner.Rollback(); err != nil {
			return nil, err
		}
		return &Result{Message: "tuner rollback complete: baseline index set restored"}, nil
	default:
		return nil, fmt.Errorf("patchindex: unknown ALTER TUNER action %q", s.Action)
	}
}
