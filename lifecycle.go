package naru

import (
	"context"
	"errors"
	"io"

	"repro/internal/core"
	"repro/internal/lifecycle"
)

// ErrLifecycleDisabled is returned by lifecycle facade methods (Append,
// RefreshCtx, Drift, ...) on an estimator without an attached lifecycle
// manager. Attach one via Config.Lifecycle at Build time or EnableLifecycle.
var ErrLifecycleDisabled = errors.New("naru: lifecycle not enabled (set Config.Lifecycle or call EnableLifecycle)")

// EnableLifecycle attaches a model-lifecycle manager to the estimator: t is
// the table snapshot the serving model was trained on (for a loaded
// estimator, the same data the saved model saw). The manager takes ownership
// of the snapshot — appends go through the estimator from here on. With
// RegistryDir set the serving model is persisted as the bootstrap version.
func (e *Estimator) EnableLifecycle(t *Table, lc LifecycleConfig) error {
	if e.lc != nil {
		return errors.New("naru: lifecycle already enabled")
	}
	if e.join != nil {
		return errors.New("naru: a join estimator ingests and refreshes through its neurocard.Estimator")
	}
	cfg := e.cfg
	var reg *lifecycle.Registry
	if lc.RegistryDir != "" {
		var err error
		if reg, err = lifecycle.OpenRegistry(lc.RegistryDir); err != nil {
			return err
		}
	}
	e.obsMu.Lock()
	obsReg := e.obsReg
	e.obsMu.Unlock()
	mgr, err := lifecycle.NewManager(e.cur.Load().model, t, lifecycle.Config{
		NLLThreshold:    lc.NLLThreshold,
		TVDThreshold:    lc.TVDThreshold,
		MinDriftRows:    lc.MinDriftRows,
		RefreshAfter:    lc.RefreshAfter,
		RefreshEpochs:   lc.RefreshEpochs,
		BatchSize:       cfg.BatchSize,
		LR:              cfg.LR / 2,
		Seed:            cfg.Seed + 3,
		TrainWorkers:    cfg.TrainWorkers,
		CheckpointPath:  lc.CheckpointPath,
		CheckpointEvery: lc.CheckpointEvery,
		Rebuild: func(domains []int) (core.Trainable, error) {
			return newModel(domains, cfg)
		},
		Registry:    reg,
		AdoptActive: lc.AdoptRegistry,
		Obs:         obsReg,
	}, e)
	if err != nil {
		return err
	}
	e.lc = mgr
	return nil
}

// Lifecycle returns the attached lifecycle manager (nil when disabled), for
// operations beyond the facade: staged ingestion, snapshot access,
// ShouldRefresh polling.
func (e *Estimator) Lifecycle() *lifecycle.Manager { return e.lc }

// Append ingests string-rendered rows (one slice per row, one element per
// column, in schema order) into the lifecycle snapshot. Unseen values extend
// the column dictionaries without invalidating existing codes. The batch is
// transactional: any bad row rejects it whole. Returns rows appended.
func (e *Estimator) Append(rows [][]string) (int, error) {
	if e.lc == nil {
		return 0, ErrLifecycleDisabled
	}
	return e.lc.AppendValues(rows)
}

// AppendCodes ingests n rows of row-major dictionary codes; every code must
// already be in its column's dictionary. Returns rows appended.
func (e *Estimator) AppendCodes(codes []int32, n int) (int, error) {
	if e.lc == nil {
		return 0, ErrLifecycleDisabled
	}
	return e.lc.AppendCodes(codes, n)
}

// AppendCSV ingests header-less CSV records as one atomic batch; errors carry
// 1-based line numbers and column names. Returns rows appended.
func (e *Estimator) AppendCSV(r io.Reader) (int, error) {
	if e.lc == nil {
		return 0, ErrLifecycleDisabled
	}
	return e.lc.AppendCSV(r)
}

// Drift returns the lifecycle drift monitor's current staleness reading.
func (e *Estimator) Drift() (DriftStatus, error) {
	if e.lc == nil {
		return DriftStatus{}, ErrLifecycleDisabled
	}
	return e.lc.Drift(), nil
}

// RefreshCtx fine-tunes a private clone of the serving model on the grown
// lifecycle snapshot and hot-swaps the result in. It runs synchronously —
// call from a background goroutine for non-blocking operation; concurrent
// calls return lifecycle.ErrRefreshRunning. Cancelling ctx aborts between
// gradient steps, leaves serving untouched, and (with a checkpoint path
// configured) flushes the stopping point so the next refresh resumes from it.
func (e *Estimator) RefreshCtx(ctx context.Context) (*RefreshResult, error) {
	if e.lc == nil {
		return nil, ErrLifecycleDisabled
	}
	return e.lc.Refresh(ctx)
}

// Versions lists the lifecycle registry's model versions (nil without a
// lifecycle manager or registry).
func (e *Estimator) Versions() []VersionMeta {
	if e.lc == nil {
		return nil
	}
	return e.lc.Versions()
}
