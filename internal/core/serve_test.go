package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/made"
	"repro/internal/query"
)

// resultsBitIdentical compares the model-sourced fields exactly.
func resultEqual(a, b Result) bool {
	return a.Sel == b.Sel && a.StdErr == b.StdErr && a.Source == b.Source && a.Samples == b.Samples
}

// TestEstimateBatchCtxMatchesSequential: with no disruption, concurrent
// ctx-serving returns bit-identical results to a sequential (Workers: 1)
// serve of the same batch on a fresh estimator, and everything is tagged
// SourceModel with a full sample budget on the sampling path.
func TestEstimateBatchCtxMatchesSequential(t *testing.T) {
	tbl := corrTable(t, 1500, 31)
	regs := batchRegions(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed = 96, 7

	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})

	for _, workers := range []int{2, 4, 8} {
		est := NewEstimator(testMADE(domains), samples, seed)
		est.EnumThreshold = 40
		got := est.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: workers})
		for i := range got {
			if !resultEqual(got[i], want[i]) {
				t.Fatalf("workers=%d query %d: %+v, want %+v", workers, i, got[i], want[i])
			}
			if got[i].Source != SourceModel || got[i].Err != nil {
				t.Fatalf("workers=%d query %d: source %v err %v", workers, i, got[i].Source, got[i].Err)
			}
		}
	}
}

// TestServeDisruptionDeterminism is the batch-determinism-under-disruption
// contract: a batch served with multiple workers, scheduled per-worker
// panics, AND a mid-batch context cancellation still returns a result for
// every query, and every query that completed on the model path is
// bit-identical to an undisrupted sequential serve. Runs under -race in CI.
func TestServeDisruptionDeterminism(t *testing.T) {
	tbl := corrTable(t, 1500, 32)
	regs := batchRegions(t, tbl)
	// Widen the workload so cancellation lands mid-batch.
	regs = append(append(append([]*query.Region{}, regs...), regs...), regs...)
	domains := tbl.DomainSizes()
	const samples, seed = 96, 7

	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})

	fallback := func(reg *query.Region) float64 { return 0.125 }
	panicked := []int{2, 5, 11}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hookPanic := faultinject.PanicOn(panicked...)
	hookCancel := faultinject.CancelAt(len(regs)-6, cancel)
	est := NewEstimator(testMADE(domains), samples, seed)
	est.EnumThreshold = 40
	got := est.EstimateBatchCtx(ctx, Requests(regs), ServeOptions{
		Workers:  4,
		Fallback: fallback,
		BeforeQuery: func(i int) {
			hookCancel(i)
			hookPanic(i)
		},
	})

	if len(got) != len(regs) {
		t.Fatalf("%d results for %d queries", len(got), len(regs))
	}
	isPanicked := map[int]bool{}
	for _, i := range panicked {
		isPanicked[i] = true
	}
	var completed, disrupted int
	for i, r := range got {
		switch r.Source {
		case SourceModel:
			completed++
			if !resultEqual(r, want[i]) {
				t.Fatalf("query %d completed but differs: %+v, want %+v", i, r, want[i])
			}
		case SourceFallback:
			disrupted++
			if r.Sel != 0.125 || r.Err == nil {
				t.Fatalf("query %d fallback: %+v", i, r)
			}
		case SourceDegraded:
			// Cancellation mid-query can leave an anytime estimate; it is a
			// disrupted (but answered) query, just not comparable bit-for-bit.
			disrupted++
			if r.Samples <= 0 || !isFinite(r.Sel) {
				t.Fatalf("query %d degraded result malformed: %+v", i, r)
			}
		case SourceFailed:
			t.Fatalf("query %d failed despite fallback: %+v", i, r)
		}
		if isPanicked[i] && r.Source != SourceFallback {
			t.Fatalf("panicked query %d was not routed to fallback: %+v", i, r)
		}
	}
	if disrupted < len(panicked) {
		t.Fatalf("only %d disrupted results for %d scheduled panics", disrupted, len(panicked))
	}
	if completed == 0 {
		t.Fatal("no query completed on the model path")
	}
}

// TestPanicWithoutFallbackIsolated: without a fallback, a panicking query
// yields SourceFailed with the panic message while its neighbors complete.
func TestPanicWithoutFallbackIsolated(t *testing.T) {
	tbl := corrTable(t, 1500, 33)
	regs := batchRegions(t, tbl)
	domains := tbl.DomainSizes()
	est := NewEstimator(testMADE(domains), 64, 7)
	got := est.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{
		Workers:     3,
		BeforeQuery: faultinject.PanicOn(4),
	})
	if got[4].Source != SourceFailed || got[4].Err == nil {
		t.Fatalf("panicked query: %+v", got[4])
	}
	for i, r := range got {
		if i == 4 {
			continue
		}
		if r.Source != SourceModel || r.Err != nil {
			t.Fatalf("query %d disturbed by neighbor panic: %+v", i, r)
		}
	}
}

// slowModel hides the concrete model behind the plain Model interface (so
// the estimator cannot fork it) and delays every conditional evaluation,
// simulating an overloaded box where deadlines actually bind.
type slowModel struct {
	Model
	delay time.Duration
}

func (m *slowModel) CondBatch(codes []int32, n int, col int, out [][]float64) {
	time.Sleep(m.delay)
	m.Model.CondBatch(codes, n, col, out)
}

// sampledRegion builds a region too large to enumerate so serving must take
// the progressive-sampling path.
func sampledRegion(t *testing.T, tbl interface {
	DomainSizes() []int
}) *query.Region {
	t.Helper()
	domains := tbl.DomainSizes()
	q := query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpGt, Code: 0},
		{Col: 1, Op: query.OpGt, Code: 0},
		{Col: 2, Op: query.OpGt, Code: 0},
	}}
	reg, err := query.CompileDomains(q, domains)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestDeadlineDegradesBudget: a binding per-query deadline cuts the sample
// budget at a chunk boundary and tags the anytime estimate SourceDegraded
// with a nonzero standard error, instead of aborting the query.
func TestDeadlineDegradesBudget(t *testing.T) {
	tbl := corrTable(t, 1500, 34)
	reg := sampledRegion(t, tbl)
	slow := &slowModel{Model: testMADE(tbl.DomainSizes()), delay: 2 * time.Millisecond}
	est := NewEstimator(slow, 2048, 7)
	est.EnumThreshold = 0

	got := est.EstimateBatchCtx(context.Background(), []Request{{Region: reg}}, ServeOptions{
		Workers:  1,
		Deadline: 10 * time.Millisecond,
	})[0]
	if got.Source != SourceDegraded {
		t.Fatalf("source %v, want degraded: %+v", got.Source, got)
	}
	if got.Samples <= 0 || got.Samples >= 2048 || got.Samples%anytimeChunk != 0 {
		t.Fatalf("degraded budget %d of 2048", got.Samples)
	}
	if got.StdErr <= 0 {
		t.Fatalf("degraded estimate has zero stderr: %+v", got)
	}
	if got.Err != nil {
		t.Fatalf("degraded estimate is not an error: %v", got.Err)
	}

	// The anytime estimate equals the full estimate's prefix: a fresh
	// estimator given exactly that budget returns the same value. The
	// reference wraps the model the same way so both runs hide Forkable/
	// SequentialModel identically and follow the exact same code path.
	est2 := NewEstimator(&slowModel{Model: testMADE(tbl.DomainSizes())}, got.Samples, 7)
	est2.EnumThreshold = 0
	ref := est2.EstimateBatchCtx(context.Background(), []Request{{Region: reg}}, ServeOptions{Workers: 1})[0]
	if ref.Sel != got.Sel {
		t.Fatalf("degraded estimate %v differs from budget-%d estimate %v", got.Sel, got.Samples, ref.Sel)
	}
}

// TestDeadlineExhaustedFallsBack: a deadline too short for even one chunk
// routes the query to the fallback, tagged with the exhaustion error.
func TestDeadlineExhaustedFallsBack(t *testing.T) {
	tbl := corrTable(t, 1500, 35)
	reg := sampledRegion(t, tbl)
	est := NewEstimator(testMADE(tbl.DomainSizes()), 256, 7)
	est.EnumThreshold = 0
	got := est.EstimateBatchCtx(context.Background(), []Request{{Region: reg}}, ServeOptions{
		Workers:  1,
		Deadline: time.Nanosecond,
		Fallback: func(*query.Region) float64 { return 0.5 },
	})[0]
	if got.Source != SourceFallback || got.Sel != 0.5 {
		t.Fatalf("got %+v, want fallback 0.5", got)
	}
	if !errors.Is(got.Err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", got.Err)
	}
}

// TestBatchDeadlineCountsFromPickup: on both batch entry points a query's
// Deadline counts from the moment a worker picks it up, so time the batch
// spent on an earlier query never counts against a later one. Query 0's hook
// sleeps past the deadline, so query 0 exhausts its budget before its first
// chunk; query 1, picked up afterwards, still runs its full budget.
func TestBatchDeadlineCountsFromPickup(t *testing.T) {
	tbl := corrTable(t, 1500, 36)
	reg := sampledRegion(t, tbl)
	reqs := []Request{{Region: reg}, {Region: reg}}
	const deadline = 300 * time.Millisecond
	opts := ServeOptions{
		Workers:  1,
		Deadline: deadline,
		BeforeQuery: func(i int) {
			if i == 0 {
				time.Sleep(deadline + 50*time.Millisecond)
			}
		},
	}
	est := NewEstimator(testMADE(tbl.DomainSizes()), 300, 7)
	est.EnumThreshold = 0
	entries := []struct {
		name  string
		serve func(context.Context, []Request, ServeOptions) []Result
	}{
		{"EstimateBatchCtx", est.EstimateBatchCtx},
		{"EstimateFused", est.EstimateFused},
	}
	for _, entry := range entries {
		got := entry.serve(context.Background(), reqs, opts)
		if !errors.Is(got[0].Err, ErrBudgetExhausted) {
			t.Fatalf("%s query 0: %+v, want ErrBudgetExhausted after its hook slept past the deadline", entry.name, got[0])
		}
		if got[1].Source != SourceModel || got[1].Samples != 300 || got[1].Err != nil {
			t.Fatalf("%s query 1: %+v, want a full-budget model answer", entry.name, got[1])
		}
	}
}

// infModel yields +Inf conditionals: importance weights blow up to +Inf and
// the serving layer must detect the non-finite mean and fall back.
type infModel struct{ domains []int }

func (m *infModel) NumCols() int       { return len(m.domains) }
func (m *infModel) DomainSizes() []int { return append([]int(nil), m.domains...) }
func (m *infModel) SizeBytes() int64   { return 0 }
func (m *infModel) LogProbBatch(codes []int32, n int, dst []float64) {
	for i := 0; i < n; i++ {
		dst[i] = math.Inf(1)
	}
}
func (m *infModel) CondBatch(codes []int32, n int, col int, out [][]float64) {
	for r := 0; r < n; r++ {
		for v := range out[r] {
			out[r][v] = math.Inf(1)
		}
	}
}

func TestNonFiniteEstimateFallsBack(t *testing.T) {
	m := &infModel{domains: []int{16, 16, 16}}
	est := NewEstimator(m, 256, 7)
	est.EnumThreshold = 0
	q := query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpGt, Code: 0},
		{Col: 1, Op: query.OpGt, Code: 0},
		{Col: 2, Op: query.OpGt, Code: 0},
	}}
	reg, err := query.CompileDomains(q, m.domains)
	if err != nil {
		t.Fatal(err)
	}
	got := est.EstimateBatchCtx(context.Background(), []Request{{Region: reg}}, ServeOptions{
		Workers:  1,
		Fallback: func(*query.Region) float64 { return 0.25 },
	})[0]
	if got.Source != SourceFallback || got.Sel != 0.25 {
		t.Fatalf("got %+v, want fallback", got)
	}
	if !errors.Is(got.Err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", got.Err)
	}
}

// poisonedMADE is testMADE with every weight NaN, as a diverged training run
// saved anyway would leave it.
func poisonedMADE(domains []int) *made.Model {
	m := testMADE(domains)
	for _, p := range m.Params() {
		for i := range p.Val.Data {
			p.Val.Data[i] = float32(math.NaN())
		}
	}
	return m
}

// TestNonFinitePoisonedModel: on a model whose weights are all NaN, a
// sampling, an enumerated and a scaled query each fail with ErrNonFinite on
// both entry points, or answer from the fallback when one is set, instead of
// passing 0 off as a model estimate.
func TestNonFinitePoisonedModel(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	domains := tbl.DomainSizes()
	ones := make([]float64, domains[3])
	for i := range ones {
		ones[i] = 1
	}
	point := query.Query{Preds: []query.Predicate{{Col: 0, Op: query.OpEq, Code: 1}}}
	reqs := []Request{
		{Region: mustRegion(t, query.Query{Preds: []query.Predicate{
			{Col: 0, Op: query.OpGe, Code: 1}, {Col: 2, Op: query.OpLt, Code: 4}}}, tbl)},
		{Region: mustRegion(t, point, tbl)},
		{Region: mustRegion(t, point, tbl), Scales: []ScaleCol{{Col: 3, Inv: ones}}},
	}
	walks := map[string]func(*Estimator, ServeOptions) []Result{
		"per-query": func(e *Estimator, o ServeOptions) []Result { return e.EstimateBatchCtx(context.Background(), reqs, o) },
		"fused":     func(e *Estimator, o ServeOptions) []Result { return e.EstimateFused(context.Background(), reqs, o) },
	}
	fallback := func(*query.Region) float64 { return 0.25 }
	for name, walk := range walks {
		for _, fb := range []func(*query.Region) float64{nil, fallback} {
			e := NewEstimator(poisonedMADE(domains), 300, 42)
			e.EnumThreshold = 40
			want, sel := SourceFailed, 0.0
			if fb != nil {
				want, sel = SourceFallback, 0.25
			}
			for i, r := range walk(e, ServeOptions{Workers: 1, Fallback: fb}) {
				if r.Source != want || r.Sel != sel || !errors.Is(r.Err, ErrNonFinite) {
					t.Errorf("%s walk, query %d: %v sel %v err %v; want %v sel %v with ErrNonFinite",
						name, i, r.Source, r.Sel, r.Err, want, sel)
				}
			}
		}
	}
}

// TestCancelledContextEveryQueryAnswered: a context cancelled before serving
// still yields a tagged result for every query.
func TestCancelledContextEveryQueryAnswered(t *testing.T) {
	tbl := corrTable(t, 1500, 36)
	regs := batchRegions(t, tbl)
	est := NewEstimator(testMADE(tbl.DomainSizes()), 64, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := est.EstimateBatchCtx(ctx, Requests(regs), ServeOptions{Workers: 4})
	for i, r := range got {
		if r.Source != SourceFailed || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("query %d: %+v, want failed with context.Canceled", i, r)
		}
	}
}

// TestFallbackPanicContained: even a panicking fallback produces a tagged
// per-query failure, not a crashed batch.
func TestFallbackPanicContained(t *testing.T) {
	tbl := corrTable(t, 1500, 37)
	regs := batchRegions(t, tbl)[:3]
	est := NewEstimator(testMADE(tbl.DomainSizes()), 64, 7)
	got := est.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{
		Workers:     1,
		BeforeQuery: faultinject.PanicOn(1),
		Fallback:    func(*query.Region) float64 { panic("fallback bug") },
	})
	if got[1].Source != SourceFailed || got[1].Err == nil {
		t.Fatalf("got %+v", got[1])
	}
	for _, i := range []int{0, 2} {
		if got[i].Source != SourceModel {
			t.Fatalf("query %d: %+v", i, got[i])
		}
	}
}
