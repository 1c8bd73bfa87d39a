package lifecycle

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/made"
	"repro/internal/table"
)

// testTarget records every InstallVersion call, standing in for the serving
// estimator's atomic swap point.
type testTarget struct {
	mu       sync.Mutex
	installs []uint64
	model    core.Trainable
	snap     *table.Table
	rows     int64
}

func (t *testTarget) InstallVersion(m core.Trainable, snap *table.Table, rows int64, version uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.installs = append(t.installs, version)
	t.model = m
	t.snap = snap
	t.rows = rows
}

func (t *testTarget) state() (versions []uint64, m core.Trainable, rows int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]uint64(nil), t.installs...), t.model, t.rows
}

// trainedModel trains a small MADE model on t long enough to learn the b=a%2
// structure tinyTable encodes.
func trainedModel(tb testing.TB, t *table.Table, epochs int) *made.Model {
	tb.Helper()
	m := tinyModel(t.DomainSizes(), 3)
	core.Train(m, t, core.TrainConfig{Epochs: epochs, BatchSize: 32, LR: 5e-3, Seed: 5})
	return m
}

// shiftedRows renders n rows from the flipped distribution (b = 1-a%2) as
// string values, the drift injection used throughout.
func shiftedRows(n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		a := i % 4
		rows[i] = []string{itoa(a), itoa(1 - a%2)}
	}
	return rows
}

func itoa(v int) string { return string(rune('0' + v)) }

func TestManagerIngestAndSnapshotIsolation(t *testing.T) {
	base := tinyTable(t, 128, nil)
	m := trainedModel(t, base, 2)
	tgt := &testTarget{}
	mgr, err := NewManager(m, base, Config{}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if v, _, rows := tgt.state(); len(v) != 1 || v[0] != 1 || rows != 128 {
		t.Fatalf("bootstrap install: %v rows %d", v, rows)
	}
	served := mgr.Snapshot()

	// Staged rows are invisible until Flush.
	if err := mgr.StageCodes([]int32{0, 0, 1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if err := mgr.StageValues([][]string{{"2", "0"}}); err != nil {
		t.Fatal(err)
	}
	if mgr.StagedRows() != 3 || mgr.Snapshot().NumRows() != 128 {
		t.Fatalf("staged %d, snapshot %d rows", mgr.StagedRows(), mgr.Snapshot().NumRows())
	}
	added, err := mgr.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 || mgr.Snapshot().NumRows() != 131 || mgr.StagedRows() != 0 {
		t.Fatalf("flush: added %d, snapshot %d", added, mgr.Snapshot().NumRows())
	}
	// The snapshot captured before the flush is untouched (copy-on-write).
	if served.NumRows() != 128 {
		t.Fatalf("pre-flush snapshot grew to %d rows", served.NumRows())
	}

	// A bad batch rejects the flush, publishes nothing, and is dropped from
	// the staged buffer — keeping it would make every later flush re-apply it
	// and fail, poisoning ingestion permanently.
	if err := mgr.StageValues([][]string{{"3", "1"}, {"zzz", "0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Flush(); err == nil {
		t.Fatal("bad batch flushed")
	}
	if mgr.Snapshot().NumRows() != 131 {
		t.Fatal("failed flush published rows")
	}
	if mgr.StagedRows() != 0 {
		t.Fatalf("failed flush kept %d poisoned rows staged", mgr.StagedRows())
	}

	// Healthy batches staged alongside a poisoned one survive it, and the
	// next flush applies them.
	if err := mgr.StageCodes([]int32{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := mgr.StageCodes([]int32{99, 99}, 1); err != nil { // outside both domains
		t.Fatal(err)
	}
	if _, err := mgr.Flush(); err == nil {
		t.Fatal("out-of-domain codes flushed")
	}
	if mgr.StagedRows() != 1 || mgr.Snapshot().NumRows() != 131 {
		t.Fatalf("after poisoned flush: staged %d, snapshot %d rows",
			mgr.StagedRows(), mgr.Snapshot().NumRows())
	}
	added, err = mgr.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || mgr.Snapshot().NumRows() != 132 || mgr.StagedRows() != 0 {
		t.Fatalf("recovery flush: added %d, snapshot %d rows, staged %d",
			added, mgr.Snapshot().NumRows(), mgr.StagedRows())
	}
}

// TestAppendCSVSlowBodyDoesNotBlockDrift: an append whose body is still
// arriving must not hold the manager's lock, or one slow /append client
// stalls Drift, the refresh drift check and every other append.
func TestAppendCSVSlowBodyDoesNotBlockDrift(t *testing.T) {
	base := tinyTable(t, 64, nil)
	mgr, err := NewManager(trainedModel(t, base, 1), base, Config{}, &testTarget{})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	type result struct {
		added int
		err   error
	}
	appended := make(chan result, 1)
	go func() {
		n, err := mgr.AppendCSV(pr)
		appended <- result{n, err}
	}()
	// A pipe write returns once the reader has taken the bytes, so
	// AppendCSV is reading its body from here on.
	if _, err := pw.Write([]byte("1,1\n")); err != nil {
		t.Fatal(err)
	}
	drift := make(chan DriftStatus, 1)
	go func() { drift <- mgr.Drift() }()
	select {
	case st := <-drift:
		if st.AppendedRows != 0 {
			t.Errorf("drift counted %d rows of an unfinished append", st.AppendedRows)
		}
	case <-time.After(10 * time.Second):
		t.Error("Drift blocked while an append body was still open")
	}
	pw.Close()
	res := <-appended
	if res.err != nil || res.added != 1 {
		t.Fatalf("append: added %d, err %v", res.added, res.err)
	}
	if st := mgr.Drift(); st.AppendedRows != 1 {
		t.Fatalf("after the append, drift counts %d rows, want 1", st.AppendedRows)
	}
}

func TestDriftDetection(t *testing.T) {
	base := tinyTable(t, 256, nil)
	m := trainedModel(t, base, 4)
	mgr, err := NewManager(m, base, Config{
		NLLThreshold: 0.2, TVDThreshold: 0.2, MinDriftRows: 64,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := mgr.Drift(); st.Stale || st.AppendedRows != 0 {
		t.Fatalf("initial drift %+v", st)
	}

	// In-distribution appends never trip the thresholds.
	inDist := make([][]string, 64)
	for i := range inDist {
		a := i % 4
		inDist[i] = []string{itoa(a), itoa(a % 2)}
	}
	if _, err := mgr.AppendValues(inDist); err != nil {
		t.Fatal(err)
	}
	if st := mgr.Drift(); st.Stale {
		t.Fatalf("in-distribution append marked stale: %+v", st)
	}

	// Below MinDriftRows the thresholds are not consulted, however shifted
	// the data: rebuild a fresh manager and append only 32 flipped rows.
	mgr2, err := NewManager(m, base, Config{
		NLLThreshold: 0.2, TVDThreshold: 0.2, MinDriftRows: 64,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.AppendValues(shiftedRows(32)); err != nil {
		t.Fatal(err)
	}
	if st := mgr2.Drift(); st.Stale {
		t.Fatalf("stale below MinDriftRows: %+v", st)
	}
	// Past MinDriftRows the flipped distribution trips TVD (b's marginal is
	// unchanged, but NLL sees the broken correlation; TVD sees nothing on b
	// alone — the signal here is NLL excess).
	if _, err := mgr2.AppendValues(shiftedRows(96)); err != nil {
		t.Fatal(err)
	}
	st := mgr2.Drift()
	if !st.Stale {
		t.Fatalf("flipped distribution not stale: %+v", st)
	}
	if st.NLLExcess <= 0.2 && st.TVD <= 0.2 {
		t.Fatalf("stale without a threshold exceeded: %+v", st)
	}

	// Values outside the model's domains are a hard staleness signal.
	mgr3, err := NewManager(m, base, Config{MinDriftRows: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	novel := make([][]string, 8)
	for i := range novel {
		novel[i] = []string{"7", "1"} // "7" extends column a's dictionary
	}
	if _, err := mgr3.AppendValues(novel); err != nil {
		t.Fatal(err)
	}
	if st := mgr3.Drift(); !st.Stale || st.UnseenValues == 0 {
		t.Fatalf("unseen values not stale: %+v", st)
	}
}

// TestRefreshDriftLoopEndToEnd is the subsystem's acceptance test: shifted
// appends mark the model stale, a cancelled refresh leaves serving and the
// registry untouched but a resumable checkpoint behind, the next refresh
// resumes from it, and the swapped-in model fits the grown table strictly
// better than the stale one.
func TestRefreshDriftLoopEndToEnd(t *testing.T) {
	base := tinyTable(t, 256, nil)
	m := trainedModel(t, base, 6)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "lifecycle.ckpt")
	reg, err := OpenRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var steps []int
	var cancelRefresh context.CancelFunc
	cancelAfter := 0
	tgt := &testTarget{}
	mgr, err := NewManager(m, base, Config{
		NLLThreshold: 0.2, TVDThreshold: 0.5, MinDriftRows: 64,
		RefreshEpochs: 3, BatchSize: 32, LR: 5e-3, Seed: 11,
		CheckpointPath: ckpt, CheckpointEvery: 4,
		Registry: reg,
		OnStep: func(step int, loss float64) error {
			mu.Lock()
			defer mu.Unlock()
			steps = append(steps, step)
			if cancelAfter > 0 && len(steps) == cancelAfter {
				cancelRefresh()
			}
			return nil
		},
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Version() != 1 || reg.Active() != 1 {
		t.Fatalf("bootstrap version %d, registry active %d", mgr.Version(), reg.Active())
	}

	// Drift in: 256 flipped rows.
	if _, err := mgr.AppendValues(shiftedRows(256)); err != nil {
		t.Fatal(err)
	}
	if !mgr.Stale() || !mgr.ShouldRefresh() {
		t.Fatalf("shifted appends not stale: %+v", mgr.Drift())
	}
	grown := mgr.Snapshot()

	// Phase 1: a refresh cancelled mid-run must leave everything as it was,
	// except a durable checkpoint of its stopping point.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	cancelRefresh = cancel1
	cancelAfter = 3
	if _, err := mgr.Refresh(ctx1); err == nil {
		t.Fatal("cancelled refresh reported success")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled refresh error %v", err)
	}
	if mgr.Version() != 1 || reg.Active() != 1 || len(reg.Versions()) != 1 {
		t.Fatalf("cancelled refresh moved versions: mgr %d registry %d/%d",
			mgr.Version(), reg.Active(), len(reg.Versions()))
	}
	if v, servingModel, _ := tgt.state(); len(v) != 1 || servingModel != core.Trainable(m) {
		t.Fatalf("cancelled refresh touched serving: installs %v", v)
	}
	if !mgr.Stale() {
		t.Fatal("cancelled refresh cleared staleness")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("cancelled refresh left no checkpoint: %v", err)
	}
	mu.Lock()
	firstRunSteps := len(steps)
	steps = nil
	cancelAfter = 0
	mu.Unlock()
	if firstRunSteps != 3 {
		t.Fatalf("first run took %d steps, want 3", firstRunSteps)
	}

	// Phase 2: the next refresh resumes from the checkpoint and completes.
	res, err := mgr.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	resumedFrom := steps[0]
	mu.Unlock()
	if resumedFrom == 0 {
		t.Fatal("second refresh restarted from step 0 instead of resuming")
	}
	if res.Version != 2 || res.Rebuilt || res.Rows != int64(grown.NumRows()) {
		t.Fatalf("refresh result %+v", res)
	}
	if mgr.Version() != 2 || reg.Active() != 2 || len(reg.Versions()) != 2 {
		t.Fatalf("post-refresh versions: mgr %d registry %d/%d",
			mgr.Version(), reg.Active(), len(reg.Versions()))
	}
	installs, servingModel, servingRows := tgt.state()
	if len(installs) != 2 || installs[1] != 2 || servingRows != int64(grown.NumRows()) {
		t.Fatalf("serving not swapped: installs %v rows %d", installs, servingRows)
	}
	if servingModel == core.Trainable(m) {
		t.Fatal("serving still points at the stale model")
	}
	// The refreshed model must fit the grown table strictly better than the
	// stale one (both scored with the same methodology).
	staleNLL := newDriftMonitor(m, grown).baseNLL
	if !(res.NLL < staleNLL) {
		t.Fatalf("refreshed NLL %.4f not better than stale %.4f", res.NLL, staleNLL)
	}
	// A completed refresh consumes its checkpoint and resets drift.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("completed refresh left its checkpoint: %v", err)
	}
	if st := mgr.Drift(); st.Stale || st.AppendedRows != 0 {
		t.Fatalf("drift not re-baselined: %+v", st)
	}

	// The registry round-trips the swapped version bit-identically.
	loaded, meta, err := reg.LoadActive()
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != 2 || meta.TrainRows != int64(grown.NumRows()) {
		t.Fatalf("active meta %+v", meta)
	}
	probe := []int32{1, 1}
	var a, b [1]float64
	servingModel.(*made.Model).LogProbBatch(probe, 1, a[:])
	loaded.(*made.Model).LogProbBatch(probe, 1, b[:])
	if a != b {
		t.Fatalf("registry round-trip diverges: %v vs %v", a, b)
	}
}

// TestRefreshConcurrentCallRejected: a second Refresh while one runs returns
// ErrRefreshRunning (probed deterministically from inside the first one).
func TestRefreshConcurrentCallRejected(t *testing.T) {
	base := tinyTable(t, 128, nil)
	m := trainedModel(t, base, 2)
	var mgr *Manager
	var nested error
	probed := false
	mgr, err := NewManager(m, base, Config{
		RefreshEpochs: 1, BatchSize: 32, LR: 1e-3, Seed: 7,
		OnStep: func(step int, loss float64) error {
			if !probed {
				probed = true
				_, nested = mgr.Refresh(context.Background())
			}
			return nil
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(nested, ErrRefreshRunning) {
		t.Fatalf("nested refresh error %v, want ErrRefreshRunning", nested)
	}
}

// TestRefreshRebuildsOnGrownDomains: appended values that extended a
// dictionary force a fresh retrain over the grown domains via the Rebuild
// hook, and drop any checkpoint from the old shape lineage.
func TestRefreshRebuildsOnGrownDomains(t *testing.T) {
	base := tinyTable(t, 128, nil)
	m := trainedModel(t, base, 2)
	ckpt := filepath.Join(t.TempDir(), "lc.ckpt")
	// A stale checkpoint from the old model shape must not poison the rebuild.
	if err := os.WriteFile(ckpt, []byte("old-shape"), 0o644); err != nil {
		t.Fatal(err)
	}
	rebuilt := 0
	tgt := &testTarget{}
	mgr, err := NewManager(m, base, Config{
		RefreshEpochs: 2, BatchSize: 32, LR: 5e-3, Seed: 9,
		CheckpointPath: ckpt,
		Rebuild: func(domains []int) (core.Trainable, error) {
			rebuilt++
			return tinyModel(domains, 21), nil
		},
	}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	novel := make([][]string, 32)
	for i := range novel {
		novel[i] = []string{"5", itoa(i % 2)} // "5" extends column a
	}
	if _, err := mgr.AppendValues(novel); err != nil {
		t.Fatal(err)
	}
	res, err := mgr.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt || rebuilt != 1 {
		t.Fatalf("rebuilt=%v hook calls=%d", res.Rebuilt, rebuilt)
	}
	_, servingModel, _ := tgt.state()
	want := mgr.Snapshot().DomainSizes()
	got := servingModel.DomainSizes()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("rebuilt model domains %v, snapshot %v", got, want)
	}
	// Without a Rebuild hook the same situation is a clean error.
	mgr2, err := NewManager(trainedModel(t, base, 1), base, Config{
		RefreshEpochs: 1, BatchSize: 32,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.AppendValues(novel); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.Refresh(context.Background()); err == nil {
		t.Fatal("grown domains refreshed without a Rebuild hook")
	}
}
