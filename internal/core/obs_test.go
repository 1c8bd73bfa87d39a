package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/query"
)

// TestStdErrConcurrentAttribution pins per-query stderr attribution: every
// concurrent one-query EstimateBatchCtx call must return the (sel, stderr)
// pair of exactly one sequential query — never a stderr that belongs to a
// different goroutine's estimate. Run under -race.
func TestStdErrConcurrentAttribution(t *testing.T) {
	tbl := corrTable(t, 3000, 70)
	reg := mustRegion(t, query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpLe, Code: 5},
		{Col: 1, Op: query.OpGe, Code: 2},
	}}, tbl)
	const n = 32
	// Reference: a fresh estimator serves queries 0..n-1 sequentially. The
	// per-query RNG is keyed by (seed, query index), so a concurrent run on
	// an identically constructed estimator draws from the same n streams in
	// some order.
	seq := NewEstimator(NewOracle(tbl), 300, 7)
	seq.EnumThreshold = 0
	type pair struct{ sel, stderr float64 }
	one := func(e *Estimator) (sel, stderr float64) {
		res := e.EstimateBatchCtx(context.Background(), []Request{{Region: reg}}, ServeOptions{})[0]
		return res.Sel, res.StdErr
	}
	want := make(map[pair]bool, n)
	for i := 0; i < n; i++ {
		sel, stderr := one(seq)
		if stderr <= 0 {
			t.Fatalf("query %d: sampling stderr = %v, want > 0", i, stderr)
		}
		want[pair{sel, stderr}] = true
	}
	if len(want) != n {
		t.Fatalf("reference pairs collide: %d distinct of %d", len(want), n)
	}

	conc := NewEstimator(NewOracle(tbl), 300, 7)
	conc.EnumThreshold = 0
	got := make([]pair, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sel, stderr := one(conc)
			got[i] = pair{sel, stderr}
		}(i)
	}
	wg.Wait()
	seen := make(map[pair]bool, n)
	for i, p := range got {
		if !want[p] {
			t.Errorf("goroutine %d: pair (%v, %v) matches no sequential query — stderr mis-attributed", i, p.sel, p.stderr)
		}
		if seen[p] {
			t.Errorf("goroutine %d: pair (%v, %v) returned twice", i, p.sel, p.stderr)
		}
		seen[p] = true
	}
}

// TestObserverDoesNotPerturbEstimateBatch: attaching a metrics registry must
// leave batch output bit-for-bit identical — instrumentation reads results,
// it never touches the seeded RNG streams.
func TestObserverDoesNotPerturbEstimateBatch(t *testing.T) {
	tbl := corrTable(t, 2500, 71)
	regions := []*query.Region{
		mustRegion(t, query.Query{Preds: []query.Predicate{
			{Col: 0, Op: query.OpLe, Code: 4}, {Col: 1, Op: query.OpGe, Code: 3}}}, tbl),
		mustRegion(t, query.Query{Preds: []query.Predicate{
			{Col: 0, Op: query.OpEq, Code: 1}}}, tbl),
		mustRegion(t, query.Query{Preds: []query.Predicate{
			{Col: 0, Op: query.OpEq, Code: 5}, {Col: 0, Op: query.OpEq, Code: 6}}}, tbl),
		mustRegion(t, query.Query{Preds: []query.Predicate{
			{Col: 2, Op: query.OpGe, Code: 1}, {Col: 3, Op: query.OpLe, Code: 8}}}, tbl),
	}

	plain := NewEstimator(NewOracle(tbl), 200, 11)
	plain.EnumThreshold = 20
	base := sels(plain.EstimateFused(context.Background(), Requests(regions), ServeOptions{Workers: 2}))

	reg := obs.New()
	observed := NewEstimator(NewOracle(tbl), 200, 11)
	observed.EnumThreshold = 20
	observed.SetObserver(reg)
	withObs := sels(observed.EstimateFused(context.Background(), Requests(regions), ServeOptions{Workers: 2}))

	for i := range base {
		if math.Float64bits(base[i]) != math.Float64bits(withObs[i]) {
			t.Fatalf("query %d: observed %v != plain %v (not bit-identical)", i, withObs[i], base[i])
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metricQueries]; got != uint64(len(regions)) {
		t.Fatalf("%s = %d, want %d", metricQueries, got, len(regions))
	}
	if snap.TraceTotal != uint64(len(regions)) {
		t.Fatalf("trace total = %d, want %d", snap.TraceTotal, len(regions))
	}
	if h := snap.Histograms[metricQueryLatency]; h.Count != uint64(len(regions)) {
		t.Fatalf("latency count = %d, want %d", h.Count, len(regions))
	}
	// Path accounting: one empty region, at least one enumeration and one
	// sampled query in the workload above.
	if snap.Counters[metricPathEmpty] != 1 {
		t.Fatalf("empty-path counter = %d, want 1", snap.Counters[metricPathEmpty])
	}
	if snap.Counters[metricPathEnum] == 0 || snap.Counters[metricPathSample] == 0 {
		t.Fatalf("path counters enum=%d sample=%d, want both > 0",
			snap.Counters[metricPathEnum], snap.Counters[metricPathSample])
	}
}

// TestObserverDoesNotPerturbBatchCtx: same bit-identity guarantee for the
// fault-tolerant serving path, including provenance and sample counts.
func TestObserverDoesNotPerturbBatchCtx(t *testing.T) {
	tbl := corrTable(t, 2500, 72)
	var regions []*query.Region
	for c := int32(0); c < 6; c++ {
		regions = append(regions, mustRegion(t, query.Query{Preds: []query.Predicate{
			{Col: 0, Op: query.OpLe, Code: c + 1}, {Col: 1, Op: query.OpGe, Code: c % 4}}}, tbl))
	}

	plain := NewEstimator(NewOracle(tbl), 300, 13)
	plain.EnumThreshold = 0
	base := plain.EstimateBatchCtx(context.Background(), Requests(regions), ServeOptions{Workers: 1})

	reg := obs.New()
	observed := NewEstimator(NewOracle(tbl), 300, 13)
	observed.EnumThreshold = 0
	observed.SetObserver(reg)
	withObs := observed.EstimateBatchCtx(context.Background(), Requests(regions), ServeOptions{Workers: 3})

	for i := range base {
		a, b := base[i], withObs[i]
		if math.Float64bits(a.Sel) != math.Float64bits(b.Sel) ||
			math.Float64bits(a.StdErr) != math.Float64bits(b.StdErr) ||
			a.Source != b.Source || a.Samples != b.Samples {
			t.Fatalf("query %d: observed %+v != plain %+v", i, b, a)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metricPathSample]; got != uint64(len(regions)) {
		t.Fatalf("sample-path counter = %d, want %d", got, len(regions))
	}
	wantPaths := uint64(len(regions)) * 300
	if snap.Counters[metricSamplesRequested] != wantPaths || snap.Counters[metricSamplesCompleted] != wantPaths {
		t.Fatalf("sample paths requested=%d completed=%d, want %d each",
			snap.Counters[metricSamplesRequested], snap.Counters[metricSamplesCompleted], wantPaths)
	}
}

// TestObserveServedPanicAndFallback: a contained panic routed to the fallback
// must show up as a recovered panic, a fallback-path count, and a trace
// record carrying the original error.
func TestObserveServedPanicAndFallback(t *testing.T) {
	tbl := corrTable(t, 1200, 73)
	var regions []*query.Region
	for c := int32(0); c < 5; c++ {
		regions = append(regions, mustRegion(t, query.Query{Preds: []query.Predicate{
			{Col: 0, Op: query.OpLe, Code: c + 2}}}, tbl))
	}
	reg := obs.New()
	est := NewEstimator(NewOracle(tbl), 100, 17)
	est.EnumThreshold = 0
	est.SetObserver(reg)
	out := est.EstimateBatchCtx(context.Background(), Requests(regions), ServeOptions{
		Workers:     1,
		BeforeQuery: faultinject.PanicOn(2),
		Fallback:    func(*query.Region) float64 { return 0.5 },
	})
	if out[2].Source != SourceFallback {
		t.Fatalf("query 2 source = %v, want fallback", out[2].Source)
	}
	snap := reg.Snapshot()
	if snap.Counters[metricPanicsRecovered] != 1 {
		t.Fatalf("panics recovered = %d, want 1", snap.Counters[metricPanicsRecovered])
	}
	if snap.Counters[metricPathFallback] != 1 {
		t.Fatalf("fallback-path counter = %d, want 1", snap.Counters[metricPathFallback])
	}
	found := false
	for _, tr := range snap.Traces {
		if tr.Path == obs.PathFallback {
			found = true
			if !tr.Recovered {
				t.Fatal("fallback trace not flagged Recovered")
			}
			if tr.Err == "" {
				t.Fatal("fallback trace lost the original error")
			}
		}
	}
	if !found {
		t.Fatal("no fallback trace recorded")
	}
}

// TestTrainTelemetryDoesNotChangeTrajectory: the same (model seed, train
// config) run with and without a registry must produce bit-identical epoch
// histories, while the registry fills in the naru_train_* families.
func TestTrainTelemetryDoesNotChangeTrajectory(t *testing.T) {
	tbl := corrTable(t, 600, 74)
	cfg := TrainConfig{Epochs: 2, BatchSize: 128, LR: 5e-3, Seed: 21}

	base, err := TrainRun(ckptModel(6, tbl), tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	cfg.Obs = reg
	withObs, err := TrainRun(ckptModel(6, tbl), tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(withObs) {
		t.Fatalf("history lengths differ: %d vs %d", len(base), len(withObs))
	}
	for i := range base {
		if math.Float64bits(base[i]) != math.Float64bits(withObs[i]) {
			t.Fatalf("epoch %d: observed NLL %v != plain %v", i, withObs[i], base[i])
		}
	}
	snap := reg.Snapshot()
	stepsPerEpoch := uint64(600 / 128)
	if got := snap.Counters[metricTrainSteps]; got != 2*stepsPerEpoch {
		t.Fatalf("%s = %d, want %d", metricTrainSteps, got, 2*stepsPerEpoch)
	}
	if got := snap.Counters[metricTrainEpochs]; got != 2 {
		t.Fatalf("%s = %d, want 2", metricTrainEpochs, got)
	}
	if got := snap.Gauges[metricTrainEpochNLL]; math.Float64bits(got) != math.Float64bits(base[len(base)-1]) {
		t.Fatalf("epoch NLL gauge %v != final history %v", got, base[len(base)-1])
	}
	if got := snap.Gauges[metricTrainLR]; got != cfg.LR {
		t.Fatalf("LR gauge = %v, want %v", got, cfg.LR)
	}
}

// TestTrainTelemetryCountsRollbacks: an injected NaN step must register as a
// divergence rollback and halve the reported learning rate.
func TestTrainTelemetryCountsRollbacks(t *testing.T) {
	tbl := corrTable(t, 800, 75)
	reg := obs.New()
	m := &nanAtStep{Trainable: ckptModel(7, tbl), at: 5}
	_, err := TrainRun(m, tbl, TrainConfig{
		Epochs: 1, BatchSize: 128, LR: 4e-3, Seed: 23, CheckpointEvery: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metricTrainRollbacks]; got != 1 {
		t.Fatalf("%s = %d, want 1", metricTrainRollbacks, got)
	}
	if got := snap.Gauges[metricTrainLR]; got != 2e-3 {
		t.Fatalf("LR gauge after rollback = %v, want 2e-3", got)
	}
}
