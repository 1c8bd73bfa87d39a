package neurocard

import (
	"context"
	"fmt"

	"repro/internal/lifecycle"
	"repro/internal/table"
)

// Join-lifecycle metric families.
const (
	metricAppendedRows = "naru_join_appended_rows_total"
	metricRefreshTotal = "naru_join_refresh_total"
	metricDriftTVD     = "naru_join_drift_tvd"
)

// Drift summarizes staleness of the serving model against the live base
// tables: the worst per-table marginal drift and growth since the snapshot
// the model was trained on. Table names the worst offender.
type Drift struct {
	Table          string  // base table with the worst drift signal
	AppendedRows   int     // rows appended to it since the snapshot
	GrowthFraction float64 // appended / snapshot rows
	TVD            float64 // max per-column total-variation distance
	Stale          bool    // either signal crossed Config.RefreshFraction
}

// AppendRows ingests rows (stringly-typed values, like the CSV path) into the
// named base table. Appends are copy-on-write: the serving sampler keeps its
// snapshot and stays consistent; appended rows join the estimate only after
// Refresh. Dictionary extensions are legal and register as drift.
func (e *Estimator) AppendRows(tableName string, rows [][]string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ti := -1
	for i, t := range e.tables {
		if t.Name == tableName {
			ti = i
			break
		}
	}
	if ti < 0 {
		return fmt.Errorf("neurocard: no base table %q in the join schema", tableName)
	}
	old := e.tables[ti]
	nt, err := old.AppendValues(rows)
	if err != nil {
		return err
	}
	e.drifts[ti].Observe(nt, old.NumRows(), nt.NumRows())
	e.tables[ti] = nt
	if e.appended != nil {
		e.appended.Add(uint64(len(rows)))
		e.tvdGauge.Set(e.driftLocked().TVD)
	}
	return nil
}

// Table returns the live (post-append) state of a base table, or nil when the
// name is not in the schema.
func (e *Estimator) Table(name string) *table.Table {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Drift reports the worst base-table drift signal across the join schema.
func (e *Estimator) Drift() Drift {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.driftLocked()
}

func (e *Estimator) driftLocked() Drift {
	var worst Drift
	score := func(d Drift) float64 {
		if d.TVD > d.GrowthFraction {
			return d.TVD
		}
		return d.GrowthFraction
	}
	for i, d := range e.drifts {
		cand := Drift{
			Table:        e.tables[i].Name,
			AppendedRows: d.AppendedRows(),
			TVD:          d.TVD(),
		}
		if d.BaseRows() > 0 {
			cand.GrowthFraction = float64(d.AppendedRows()) / float64(d.BaseRows())
		}
		if worst.Table == "" || score(cand) > score(worst) {
			worst = cand
		}
	}
	worst.Stale = score(worst) >= e.cfg.RefreshFraction
	return worst
}

// ShouldRefresh reports whether any base table has drifted or grown past
// Config.RefreshFraction since the serving snapshot.
func (e *Estimator) ShouldRefresh() bool { return e.Drift().Stale }

// Refresh rebuilds the sampler over the live base tables (picking up appended
// rows and dictionary extensions), retrains the model on the new join, and
// atomically swaps the serving bundle. Concurrent estimates never block: they
// finish on whichever version they loaded. Refreshes are serialized; drift
// baselines reset to the new snapshot.
func (e *Estimator) Refresh(ctx context.Context) error {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()

	e.mu.Lock()
	sch := &Schema{
		Tables: append([]*table.Table(nil), e.tables...),
		Edges:  append([]Edge(nil), e.edges...),
	}
	id := e.nextID + 1
	e.mu.Unlock()

	smp, err := NewSampler(sch)
	if err != nil {
		return err
	}
	smp.Observe(e.reg)
	model, _, err := trainModel(ctx, smp, e.cfg)
	if err != nil {
		return err
	}
	v, err := newVersion(id, smp, model, e.cfg)
	if err != nil {
		return err
	}
	for _, fn := range e.onServe {
		fn(e.serving(v))
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID = id
	e.cur.Store(v)
	// Re-baseline drift at the refreshed snapshot; rows appended while the
	// refresh trained are carried over as fresh drift.
	for i := range e.drifts {
		d := lifecycle.NewTableDrift(sch.Tables[i])
		if cur := e.tables[i]; cur.NumRows() > sch.Tables[i].NumRows() {
			d.Observe(cur, sch.Tables[i].NumRows(), cur.NumRows())
		}
		e.drifts[i] = d
	}
	if e.refreshes != nil {
		e.refreshes.Add(1)
		e.verGauge.Set(float64(id))
		e.tvdGauge.Set(e.driftLocked().TVD)
	}
	return nil
}
