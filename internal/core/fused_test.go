package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/made"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// fusedWorkload widens batchRegions with extra interior-wildcard and point
// queries so one fused batch mixes every query shape: point, range, IN,
// leading/trailing/interior wildcards, enumerable-small, and empty.
func fusedWorkload(t *testing.T, tbl *table.Table) []*query.Region {
	t.Helper()
	regs := batchRegions(t, tbl)
	extra := []query.Query{
		// Interior wildcards: only the first and last columns restricted.
		{Preds: []query.Predicate{{Col: 0, Op: query.OpGt, Code: 1}, {Col: 3, Op: query.OpLt, Code: 9}}},
		// Single restricted column in the middle.
		{Preds: []query.Predicate{{Col: 2, Op: query.OpBetween, Code: 1, Code2: 4}}},
		// Point query on two non-adjacent columns.
		{Preds: []query.Predicate{{Col: 1, Op: query.OpEq, Code: 3}, {Col: 3, Op: query.OpEq, Code: 2}}},
	}
	for _, q := range extra {
		regs = append(regs, mustRegion(t, q, tbl))
	}
	return regs
}

func requireFusedMatch(t *testing.T, got, want []Result) {
	t.Helper()
	for i := range want {
		if !resultEqual(got[i], want[i]) || got[i].Stop != want[i].Stop {
			t.Fatalf("query %d: fused %+v (stop %q) != sequential %+v (stop %q)",
				i, got[i], got[i].Stop, want[i], want[i].Stop)
		}
	}
}

// TestEstimateFusedMatchesSequential is the tentpole determinism contract: a
// mixed workload served through the fused block walk is bit-identical to a
// fresh estimator serving it sequentially, because both consume the same
// per-(query, chunk) RNG streams.
func TestEstimateFusedMatchesSequential(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed = 300, 42 // 3 chunks: crosses the first wave boundary

	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})

	fused := NewEstimator(testMADE(domains), samples, seed)
	fused.EnumThreshold = 40
	got := fused.EstimateFused(context.Background(), Requests(regs), ServeOptions{})
	requireFusedMatch(t, got, want)

	sampled := 0
	for _, r := range got {
		if r.Samples == samples {
			sampled++
		}
	}
	if sampled < 3 {
		t.Fatalf("only %d queries took the sampling path; workload too small to exercise fusion", sampled)
	}
}

// TestEstimateFusedAdaptiveBudget: with a target relative standard error set,
// fused and sequential serving stop the same queries at the same wave
// boundaries with bit-identical estimates, and early-stopped answers stay
// SourceModel (they met their accuracy target) with the stop reason recorded.
func TestEstimateFusedAdaptiveBudget(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed = 2048, 42
	opts := ServeOptions{TargetRelStdErr: 0.05}

	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40
	sopts := opts
	sopts.Workers = 1
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), sopts)

	fused := NewEstimator(testMADE(domains), samples, seed)
	fused.EnumThreshold = 40
	got := fused.EstimateFused(context.Background(), Requests(regs), opts)
	requireFusedMatch(t, got, want)

	early := 0
	for i, r := range got {
		if r.Stop != StopTargetStdErr {
			continue
		}
		early++
		if r.Source != SourceModel {
			t.Fatalf("query %d stopped at target but tagged %v", i, r.Source)
		}
		if r.Samples != 2*anytimeChunk && r.Samples != 6*anytimeChunk {
			t.Fatalf("query %d stopped at %d samples, not a wave boundary", i, r.Samples)
		}
		if r.StdErr > opts.TargetRelStdErr*r.Sel {
			t.Fatalf("query %d stopped early without meeting target: stderr %v sel %v", i, r.StdErr, r.Sel)
		}
	}
	if early == 0 {
		t.Fatal("no query stopped at the accuracy target; loosen the target or widen the workload")
	}
}

// TestEstimateFusedFallbackBeforeSampling: a query that fails before it
// samples (here a panicking BeforeQuery hook) is answered by the fallback on
// the fused entry exactly as on the reference entry — both share one
// classifier and send every inline result through routeFallback.
func TestEstimateFusedFallbackBeforeSampling(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := batchRegions(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed = 96, 7
	opts := ServeOptions{
		Workers:     1,
		BeforeQuery: faultinject.PanicOn(2),
		Fallback:    func(*query.Region) float64 { return 0.125 },
	}

	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), opts)

	fused := NewEstimator(testMADE(domains), samples, seed)
	fused.EnumThreshold = 40
	got := fused.EstimateFused(context.Background(), Requests(regs), opts)
	for i := range want {
		if got[i].Source != want[i].Source || got[i].Sel != want[i].Sel {
			t.Fatalf("query %d: fused %v %v, per-query %v %v", i, got[i].Source, got[i].Sel, want[i].Source, want[i].Sel)
		}
	}
	if got[2].Source != SourceFallback || got[2].Sel != 0.125 {
		t.Fatalf("panicked query 2: %v %v, want fallback 0.125", got[2].Source, got[2].Sel)
	}
}

// TestEstimateFusedNonBlockModelDelegates: a model that doesn't expose the
// block walk is served through the sequential ctx path transparently.
func TestEstimateFusedNonBlockModelDelegates(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed = 128, 42

	seq := NewEstimator(noFork{testMADE(domains)}, samples, seed)
	seq.EnumThreshold = 40
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})

	fused := NewEstimator(noFork{testMADE(domains)}, samples, seed)
	fused.EnumThreshold = 40
	got := fused.EstimateFused(context.Background(), Requests(regs), ServeOptions{})
	requireFusedMatch(t, got, want)
}

// panicBlock panics on its first AdvanceBlock call, poisoning the fused
// block mid-walk. It forks to itself so the estimator's scratch sees the
// wrapper (and its panic) rather than a clean replica.
type panicBlock struct {
	*made.Model
	fired bool
}

func (p *panicBlock) ForkModel() any { return p }
func (p *panicBlock) AdvanceBlock(codes []int32, n, col int) {
	if !p.fired {
		p.fired = true
		panic("fused block bug")
	}
	p.Model.AdvanceBlock(codes, n, col)
}

// TestEstimateFusedBlockPanicReserved: a panic inside a fused block is
// contained to the block's query. That query alone restarts on CondBatch
// steps and, because chunk streams are keyed by (query, chunk), still
// returns the bit-identical sequential answer; the other queries carry on in
// blocks on the same replica.
func TestEstimateFusedBlockPanicReserved(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed = 300, 42

	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})

	// Workers pinned to 1: panicBlock forks to itself, so concurrent serving
	// goroutines would share one model state. TestEstimateFusedShardPanicContained
	// covers the multi-goroutine containment path with properly forking
	// replicas.
	pb := &panicBlock{Model: testMADE(domains)}
	fused := NewEstimator(pb, samples, seed)
	fused.EnumThreshold = 40
	reg := obs.New()
	fused.SetObserver(reg)
	got := fused.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: 1})
	if !pb.fired {
		t.Fatal("block panic never triggered; fused path not taken")
	}
	requireFusedMatch(t, got, want)
	if n := reg.Counter(metricFusedReserved).Value(); n != 1 {
		t.Fatalf("re-served %d queries after one block panic; want 1", n)
	}
}

// TestEstimateFusedWorkerMatrix is the parallel determinism contract: the
// same workload served at every worker count — and so by every number of
// serving goroutines — returns bit-identical results to the per-query
// sequential path. Run under -race this also exercises the serving
// goroutines concurrently.
func TestEstimateFusedWorkerMatrix(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed = 300, 42

	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})

	for _, w := range []int{1, 2, 4, 8} {
		fused := NewEstimator(testMADE(domains), samples, seed)
		fused.EnumThreshold = 40
		got := fused.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: w})
		for i := range want {
			if !resultEqual(got[i], want[i]) || got[i].Stop != want[i].Stop {
				t.Fatalf("workers=%d query %d: fused %+v != sequential %+v", w, i, got[i], want[i])
			}
		}
	}
}

// callCounter wraps a MADE model and, shared across its forks, counts the
// calls of the row-range entry points (BeginAdvanceRows, AdvanceRows,
// PrepareDecode), tracks the most model calls in flight at once, and
// records the height of every walk BeginSampling announces.
type callCounter struct {
	*made.Model
	c *modelCalls
}

type modelCalls struct {
	ranged      atomic.Int64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64

	mu      sync.Mutex
	heights map[int]int
}

func (m *callCounter) ForkModel() any { return &callCounter{Model: m.Model.Fork(), c: m.c} }

// enter counts one model call in flight; the returned func ends it.
func (c *modelCalls) enter() func() {
	n := c.inFlight.Add(1)
	for top := c.maxInFlight.Load(); n > top; top = c.maxInFlight.Load() {
		if c.maxInFlight.CompareAndSwap(top, n) {
			break
		}
	}
	return func() { c.inFlight.Add(-1) }
}

func (m *callCounter) BeginSampling(n int) {
	defer m.c.enter()()
	m.c.mu.Lock()
	m.c.heights[n]++
	m.c.mu.Unlock()
	m.Model.BeginSampling(n)
}

func (m *callCounter) CondBatch(codes []int32, n, col int, out [][]float64) {
	defer m.c.enter()()
	m.Model.CondBatch(codes, n, col, out)
}

func (m *callCounter) AdvanceBlock(codes []int32, n, col int) {
	defer m.c.enter()()
	m.Model.AdvanceBlock(codes, n, col)
}

func (m *callCounter) DecodeBlock(col, r0, r1 int, out [][]float64) {
	defer m.c.enter()()
	m.Model.DecodeBlock(col, r0, r1, out)
}

func (m *callCounter) BeginAdvanceRows(n, col int) {
	m.c.ranged.Add(1)
	defer m.c.enter()()
	m.Model.BeginAdvanceRows(n, col)
}

func (m *callCounter) AdvanceRows(codes []int32, col, r0, r1 int) {
	m.c.ranged.Add(1)
	defer m.c.enter()()
	m.Model.AdvanceRows(codes, col, r0, r1)
}

func (m *callCounter) FinishAdvanceRows(col int) {
	defer m.c.enter()()
	m.Model.FinishAdvanceRows(col)
}

func (m *callCounter) PrepareDecode(col int) {
	m.c.ranged.Add(1)
	defer m.c.enter()()
	m.Model.PrepareDecode(col)
}

// TestEstimateFusedOneQueryWalksOnOneGoroutine: Workers bounds how many
// queries walk at once, and a query always walks on one goroutine. Served
// one per EstimateFused call at Workers: 4, with S = 11 chunks so each query
// walks blocks of 256, 512 and 640 rows, no query reaches the model's
// row-range entry points, no two model calls overlap, and every answer is
// bit-identical to Workers: 1.
func TestEstimateFusedOneQueryWalksOnOneGoroutine(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed = 11 * anytimeChunk, 42
	serve := func(m Model, workers int) []Result {
		e := NewEstimator(m, samples, seed)
		e.EnumThreshold = 40
		var res []Result
		for _, req := range Requests(regs) {
			res = append(res, e.EstimateFused(context.Background(), []Request{req}, ServeOptions{Workers: workers})...)
		}
		return res
	}
	want := serve(testMADE(domains), 1)
	cc := &callCounter{Model: testMADE(domains), c: &modelCalls{heights: map[int]int{}}}
	got := serve(cc, 4)
	sampled := 0
	for i := range want {
		if !resultEqual(got[i], want[i]) || got[i].Stop != want[i].Stop {
			t.Fatalf("query %d: workers=4 %+v != workers=1 %+v", i, got[i], want[i])
		}
		if want[i].Samples == samples {
			sampled++
		}
	}
	if sampled < 3 {
		t.Fatalf("only %d queries sampled; the workload must carry several", sampled)
	}
	cc.c.mu.Lock()
	for _, h := range []int{256, 512, 640} {
		if cc.c.heights[h] != sampled {
			t.Fatalf("%d blocks of %d rows for %d sampling queries; heights %v", cc.c.heights[h], h, sampled, cc.c.heights)
		}
	}
	cc.c.mu.Unlock()
	if n := cc.c.ranged.Load(); n != 0 {
		t.Fatalf("the walk made %d row-range model calls; a query must walk on one goroutine", n)
	}
	if n := cc.c.maxInFlight.Load(); n > 1 {
		t.Fatalf("%d model calls ran at once; a one-query call must walk on one goroutine", n)
	}
}

// TestEstimateFusedInvalidWorkers: a negative worker count is a caller bug,
// rejected for the whole batch with ErrInvalidWorkers on both batch entry
// points instead of being silently clamped.
func TestEstimateFusedInvalidWorkers(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	e := NewEstimator(testMADE(tbl.DomainSizes()), 300, 42)
	e.EnumThreshold = 40

	paths := map[string][]Result{
		"EstimateFused":    e.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: -3}),
		"EstimateBatchCtx": e.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: -3}),
	}
	for name, res := range paths {
		if len(res) != len(regs) {
			t.Fatalf("%s: %d results for %d regions", name, len(res), len(regs))
		}
		for i, r := range res {
			if r.Source != SourceFailed || !errors.Is(r.Err, ErrInvalidWorkers) {
				t.Fatalf("%s query %d: got source %v err %v; want SourceFailed with ErrInvalidWorkers",
					name, i, r.Source, r.Err)
			}
		}
	}
}

// shardPanicBlock forks real model replicas (unlike panicBlock) but shares
// one panic trigger across them, so exactly one serving goroutine's walk is
// poisoned no matter how the scheduler interleaves.
type shardPanicBlock struct {
	*made.Model
	fired *atomic.Bool
}

func (p *shardPanicBlock) ForkModel() any {
	return &shardPanicBlock{Model: p.Model.Fork(), fired: p.fired}
}

func (p *shardPanicBlock) AdvanceBlock(codes []int32, n, col int) {
	if p.fired.CompareAndSwap(false, true) {
		panic("shard block bug")
	}
	p.Model.AdvanceBlock(codes, n, col)
}

// TestEstimateFusedShardPanicContained: with several serving goroutines in
// flight, a panic inside one goroutine's walk re-serves only the panicking
// block's query (naru_fused_reserved_total reads 1) and every answer —
// re-served or not — stays bit-identical to sequential.
func TestEstimateFusedShardPanicContained(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed, workers = 300, 42, 4

	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})

	pb := &shardPanicBlock{Model: testMADE(domains), fired: new(atomic.Bool)}
	fused := NewEstimator(pb, samples, seed)
	fused.EnumThreshold = 40
	reg := obs.New()
	fused.SetObserver(reg)
	got := fused.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: workers})
	if !pb.fired.Load() {
		t.Fatal("shard panic never triggered; fused path not taken")
	}
	requireFusedMatch(t, got, want)
	if n := reg.Counter(metricFusedReserved).Value(); n != 1 {
		t.Fatalf("re-served %d queries after one block panic; want 1", n)
	}
}

// blockPanics panics on every advance of its own block walk and, when cond
// is set, on every CondBatch call as well.
type blockPanics struct {
	*made.Model
	cond bool
}

func (p *blockPanics) ForkModel() any { return &blockPanics{Model: p.Model.Fork(), cond: p.cond} }

func (p *blockPanics) AdvanceBlock(codes []int32, n, col int) { panic("block walk bug") }

func (p *blockPanics) CondBatch(codes []int32, n, col int, out [][]float64) {
	if p.cond {
		panic("CondBatch bug")
	}
	p.Model.CondBatch(codes, n, col, out)
}

// TestEstimateFusedRestartOnCondBatch: a fault injected at core.fused.walk
// on every block, or a panic in every block, of a model's own walk restarts
// each sampling query once on CondBatch blocks, which reach neither the
// fault point nor the naru_fused_* block counters, and the model answers
// bit for bit as on EstimateBatchCtx. A panic in a CondBatch block fails its
// query with ErrPanicked after that one restart.
func TestEstimateFusedRestartOnCondBatch(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	// Every query restricts a column, so every sampling walk advances one.
	var regs []*query.Region
	for _, reg := range fusedWorkload(t, tbl) {
		if reg.IsEmpty() || slices.ContainsFunc(reg.Cols, func(c query.ColumnRange) bool { return !c.IsAll() }) {
			regs = append(regs, reg)
		}
	}
	domains := tbl.DomainSizes()
	const samples, seed = 300, 42
	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 0
	want := seq.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})
	sampled := 0
	for _, r := range want {
		if r.Samples == samples {
			sampled++
		}
	}
	if sampled < 3 {
		t.Fatalf("only %d queries sampled; the workload must carry several", sampled)
	}
	serve := func(m Model) ([]Result, *obs.Registry) {
		e := NewEstimator(m, samples, seed)
		e.EnumThreshold = 0
		reg := obs.New()
		e.SetObserver(reg)
		return e.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: 1}), reg
	}
	requireRestarts := func(how string, reg *obs.Registry) {
		t.Helper()
		if n := reg.Counter(metricFusedReserved).Value(); n != uint64(sampled) {
			t.Fatalf("%s: %d restarts for %d sampling queries", how, n, sampled)
		}
		for _, m := range []string{metricFusedBlocks, metricFusedRowsWalked, metricFusedRowsDecoded} {
			if n := reg.Counter(m).Value(); n != 0 {
				t.Fatalf("%s: %s = %d; CondBatch blocks must not count", how, m, n)
			}
		}
	}

	faultinject.Enable(siteFusedWalk, faultinject.Spec{Mode: faultinject.ModeError, Count: -1})
	got, reg := serve(testMADE(domains))
	hits := faultinject.Hits(siteFusedWalk)
	faultinject.Reset()
	requireFusedMatch(t, got, want)
	requireRestarts("injected fault", reg)
	if hits != sampled {
		t.Fatalf("the fault point was hit %d times for %d sampling queries; CondBatch blocks must not reach it", hits, sampled)
	}

	got, reg = serve(&blockPanics{Model: testMADE(domains)})
	requireFusedMatch(t, got, want)
	requireRestarts("block panic", reg)

	got, reg = serve(&blockPanics{Model: testMADE(domains), cond: true})
	for i, r := range got {
		if want[i].Samples == samples && (r.Source != SourceFailed || !errors.Is(r.Err, ErrPanicked)) {
			t.Fatalf("query %d: %v %v after a panic in both walks; want SourceFailed with ErrPanicked", i, r.Source, r.Err)
		}
	}
	requireRestarts("panic in both walks", reg)
}

// decodeCounter wraps a MADE model and logs, per block walk, which rows
// reach the model at each decoded column, next to the number of distinct
// prefixes the block's rows have drawn by then. When live is set (a test
// driving walkBlock directly points it at the block's weights), only live
// rows count toward the prefixes, and kill zeroes the conditional of every
// prefix whose codes sum to a multiple of 3 past column 0, so that paths
// die at restricted columns. Forks log to the same decodeLog.
type decodeCounter struct {
	*made.Model
	log  *decodeLog
	live func(r int) bool
	kill bool

	codes   []int32
	decoded map[string]bool // prefixes decoded at the current column
	cur     *blockDecodes
}

type decodeLog struct {
	mu     sync.Mutex
	blocks []*blockDecodes
}

// blockDecodes is one block walk's log: for each decoded column in order,
// the rows decoded and the distinct prefixes, plus decodes of a dead row or
// of a prefix already decoded at the same column.
type blockDecodes struct {
	n                 int
	cols              []int
	decoded, distinct []int
	dead, repeated    int
	deadRows          int // dead rows seen at advances, when live is set
}

func newDecodeCounter(m *made.Model) *decodeCounter {
	return &decodeCounter{Model: m, log: new(decodeLog)}
}

func (d *decodeCounter) ForkModel() any {
	return &decodeCounter{Model: d.Model.Fork(), log: d.log, live: d.live}
}

func (d *decodeCounter) BeginSampling(n int) {
	d.cur = &blockDecodes{n: n}
	d.log.mu.Lock()
	d.log.blocks = append(d.log.blocks, d.cur)
	d.log.mu.Unlock()
	d.Model.BeginSampling(n)
}

// prefix is row r's codes before col, as a map key.
func (d *decodeCounter) prefix(r, col int) string {
	nc := d.NumCols()
	return fmt.Sprint(d.codes[r*nc : r*nc+col])
}

// advanced logs column col's distinct prefixes once the block's rows have
// drawn every earlier column.
func (d *decodeCounter) advanced(codes []int32, col int) {
	d.codes = codes
	d.decoded = map[string]bool{}
	distinct := map[string]bool{}
	for r := 0; r < d.cur.n; r++ {
		if d.live == nil || d.live(r) {
			distinct[d.prefix(r, col)] = true
		} else {
			d.cur.deadRows++
		}
	}
	d.cur.cols = append(d.cur.cols, col)
	d.cur.decoded = append(d.cur.decoded, 0)
	d.cur.distinct = append(d.cur.distinct, len(distinct))
}

func (d *decodeCounter) AdvanceBlock(codes []int32, n, col int) {
	d.Model.AdvanceBlock(codes, n, col)
	d.advanced(codes, col)
}

func (d *decodeCounter) DecodeBlock(col, r0, r1 int, out [][]float64) {
	last := len(d.cur.cols) - 1
	for j, o := range out[:r1-r0] {
		if o == nil {
			continue
		}
		r := r0 + j
		d.cur.decoded[last]++
		if d.live != nil && !d.live(r) {
			d.cur.dead++
		}
		if key := d.prefix(r, col); d.decoded[key] {
			d.cur.repeated++
		} else {
			d.decoded[key] = true
		}
	}
	d.Model.DecodeBlock(col, r0, r1, out)
	if !d.kill || col == 0 {
		return
	}
	nc := d.NumCols()
	for j, o := range out[:r1-r0] {
		sum := int32(0)
		for _, c := range d.codes[(r0+j)*nc : (r0+j)*nc+col] {
			sum += c
		}
		if o != nil && sum%3 == 0 {
			clear(o)
		}
	}
}

// check requires every logged block walk to decode one row per distinct
// prefix at each column (per live prefix, exactly, when wantExact is set;
// at most, otherwise), no dead row and no prefix twice, and exactly one row
// at its first decoded column. It returns the walk's row-column totals and
// the dead rows its advances saw.
func (l *decodeLog) check(t *testing.T, wantExact bool) (walked, decoded, deadRows int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	blocks := 0
	for _, b := range l.blocks {
		if len(b.cols) == 0 {
			continue // a CondBatch walk: enumeration, or a one-chunk CondBatch block
		}
		blocks++
		if b.dead != 0 || b.repeated != 0 {
			t.Fatalf("block of %d rows decoded %d dead rows and %d repeated prefixes", b.n, b.dead, b.repeated)
		}
		if b.decoded[0] != 1 {
			t.Fatalf("block of %d rows decoded %d rows at its first decoded column %d, want 1",
				b.n, b.decoded[0], b.cols[0])
		}
		for i, col := range b.cols {
			if b.decoded[i] > b.distinct[i] || wantExact && b.decoded[i] != b.distinct[i] {
				t.Fatalf("block of %d rows decoded %d rows at column %d over %d distinct prefixes",
					b.n, b.decoded[i], col, b.distinct[i])
			}
			decoded += b.decoded[i]
		}
		walked += b.n * len(b.cols)
		deadRows += b.deadRows
	}
	if blocks == 0 {
		t.Fatal("no block walk reached the model")
	}
	return walked, decoded, deadRows
}

// TestEstimateFusedFirstColumnDecodesOneRow: every row of a block enters
// the walk in the same zero-input state, so column 0 reaches the model for
// one row, on every block of every query.
func TestEstimateFusedFirstColumnDecodesOneRow(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	reqs := scaledWorkload(t, tbl)
	dc := newDecodeCounter(testMADE(tbl.DomainSizes()))
	e := NewEstimator(dc, 300, 42)
	e.EnumThreshold = 40
	e.EstimateFused(context.Background(), reqs, ServeOptions{Workers: 1})
	dc.log.check(t, false)
}

// TestEstimateFusedDecodesOneRowPerLivePrefix drives walkBlock directly, so
// the counter can read the block's weights: at every decoded column the
// model decodes exactly one row per distinct prefix among the live rows and
// never a dead row. The weights start at 1 and only the draw changes them,
// so a row is live at a decode iff its weight is positive. The counter
// zeroes some conditionals, since a softmax alone leaves no path without
// mass.
func TestEstimateFusedDecodesOneRowPerLivePrefix(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	const samples = 5 * anytimeChunk // one 640-row block of 20 decode tiles
	dc := newDecodeCounter(testMADE(tbl.DomainSizes()))
	e := NewEstimator(dc, samples, 42)
	e.EnumThreshold = 40
	sc := e.acquire()
	st := sc.st
	bm := sc.model.(*decodeCounter)
	bm.live = func(r int) bool { return st.weights[r] > 0 }
	bm.kill = true
	opts := ServeOptions{}
	walkedBlocks := 0
	for i, reg := range regs {
		fq, _ := e.classify(context.Background(), sc, Request{Region: reg}, uint64(i), i, &opts, time.Now())
		if fq == nil {
			continue
		}
		if err := e.walkBlock(bm, st, fq, 0, samples/anytimeChunk); err != nil {
			t.Fatal(err)
		}
		walkedBlocks++
	}
	e.release(sc)
	if walkedBlocks < 3 {
		t.Fatalf("only %d sampling queries; workload too small", walkedBlocks)
	}
	walked, decoded, deadRows := dc.log.check(t, true)
	if decoded >= walked || deadRows == 0 {
		t.Fatalf("%d of %d row-columns decoded, %d dead rows seen; the walk must share prefixes and kill paths",
			decoded, walked, deadRows)
	}
}

// TestEstimateFusedPrefixGroupsBitIdentical: decoding one row per prefix
// group changes no bit of any answer. Single-table and scaled join requests
// served fused, one per call, at W ∈ {1, 2, 4, 8}, answer exactly like the
// reference walk. With an observer attached, naru_fused_rows_walked_total
// and naru_fused_rows_decoded_total count the row-columns the blocks walked
// and the rows the model decoded, and the answers stay the same.
func TestEstimateFusedPrefixGroupsBitIdentical(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	reqs := scaledWorkload(t, tbl)
	domains := tbl.DomainSizes()
	const samples, seed = 6*anytimeChunk + 5*anytimeChunk, 42
	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40
	want := seq.EstimateBatchCtx(context.Background(), reqs, ServeOptions{Workers: 1})
	for _, w := range []int{1, 2, 4, 8} {
		for _, observed := range []bool{false, true} {
			dc := newDecodeCounter(testMADE(domains))
			fused := NewEstimator(dc, samples, seed)
			fused.EnumThreshold = 40
			reg := obs.New()
			if observed {
				fused.SetObserver(reg)
			}
			var got []Result
			for i := range reqs {
				got = append(got, fused.EstimateFused(context.Background(), reqs[i:i+1], ServeOptions{Workers: w})...)
			}
			for i := range want {
				if !resultEqual(got[i], want[i]) || got[i].Stop != want[i].Stop {
					t.Fatalf("workers=%d observed=%v query %d (scales %v): fused %+v != per-query %+v",
						w, observed, i, reqs[i].Scales != nil, got[i], want[i])
				}
			}
			walked, decoded, _ := dc.log.check(t, false)
			if !observed {
				continue
			}
			if c := reg.Counter(metricFusedRowsWalked).Value(); c != uint64(walked) {
				t.Fatalf("%s = %d, the blocks walked %d row-columns", metricFusedRowsWalked, c, walked)
			}
			if c := reg.Counter(metricFusedRowsDecoded).Value(); c != uint64(decoded) {
				t.Fatalf("%s = %d, the model decoded %d rows", metricFusedRowsDecoded, c, decoded)
			}
			if decoded >= walked {
				t.Fatalf("%d of %d row-columns decoded; no prefix was shared", decoded, walked)
			}
		}
	}
}

// TestEstimateFusedWalkZeroAlloc asserts walkBlock's documented contract:
// once the pooled buffers, RNGs, group tables and model scratch are primed,
// a block walk performs zero heap allocations at any block height. The small case walks one query's three chunks (the last one short)
// through a narrow model; the DMV-shaped case walks one query's 16 full
// chunks (2048 rows) through hidden layers as wide as the DMV benchmark
// model's, with an embedded column whose decode spans many tiles and panels.
// Its products are far above any size at which a kernel would fan out over
// goroutines, so a kernel under the walk that starts one (each start
// allocates) fails this test.
func TestEstimateFusedWalkZeroAlloc(t *testing.T) {
	small := corrTable(t, 1500, 3)
	wide := wideDomainTable(t, 1500, 3)
	cases := []struct {
		name    string
		tbl     *table.Table
		cfg     made.Config
		samples int // one block of every chunk: at most maxFusedRows
		runs    int // measured walks
	}{
		{"small", small, made.Config{HiddenSizes: []int{16, 16}, EmbedThreshold: 64, EmbedDim: 8, Seed: 5}, 300, 20},
		// The DMV benchmark model's layer widths (bench.DMVModelConfig).
		{"dmv-shaped", wide, made.Config{HiddenSizes: []int{256, 128, 256}, EmbedThreshold: 64, EmbedDim: 64, Seed: 5},
			maxFusedRows, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			regs := fusedWorkload(t, c.tbl)
			e := NewEstimator(made.New(c.tbl.DomainSizes(), c.cfg), c.samples, 42)
			e.EnumThreshold = 40
			// Prime every pool: model scratch capacity, packed-weight caches
			// and the fused state.
			e.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: 1})

			sc := e.acquire()
			defer e.release(sc)
			bm, ok := sc.model.(BlockModel)
			if !ok {
				t.Fatal("test model is not a BlockModel")
			}
			st := sc.st

			// The first sampling query of the workload, all of its chunks in
			// one block.
			opts := ServeOptions{}
			var fq *sampleQuery
			for i, reg := range regs {
				if fq, _ = e.classify(context.Background(), sc, Request{Region: reg}, uint64(1000+i), i, &opts, time.Now()); fq != nil {
					break
				}
			}
			if fq == nil {
				t.Fatal("no sampling query; workload too small")
			}
			chunks := (c.samples + anytimeChunk - 1) / anytimeChunk

			// One warm walk grows st.rngs to the chunk count and settles any
			// remaining lazily-built model scratch.
			if err := e.walkBlock(bm, st, fq, 0, chunks); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(c.runs, func() {
				if err := e.walkBlock(bm, st, fq, 0, chunks); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state fused walk of %d rows allocates %.1f objects per block; want 0", c.samples, avg)
			}
		})
	}
}

// heightModel records the height of every walk BeginSampling announces, on
// itself and on every fork.
type heightModel struct {
	*made.Model
	mu      *sync.Mutex
	heights map[int]int
}

func (h *heightModel) ForkModel() any {
	return &heightModel{Model: h.Model.Fork(), mu: h.mu, heights: h.heights}
}

func (h *heightModel) BeginSampling(n int) {
	h.mu.Lock()
	h.heights[n]++
	h.mu.Unlock()
	h.Model.BeginSampling(n)
}

// TestEstimateFusedBlockHoldsOneQuery: a fused block holds the chunks of one
// query's wave. At S = 300 (chunks of 128, 128 and 44 paths) every sampling
// query walks one 256-row block in the first wave and one 44-row block in
// the second, however many queries the call carries.
func TestEstimateFusedBlockHoldsOneQuery(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	hm := &heightModel{Model: testMADE(tbl.DomainSizes()), mu: new(sync.Mutex), heights: map[int]int{}}
	e := NewEstimator(hm, 300, 42)
	e.EnumThreshold = 0 // enumeration announces its own heights
	got := e.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: 1})
	sampled := 0
	for _, r := range got {
		if r.Samples == 300 {
			sampled++
		}
	}
	if sampled < 3 {
		t.Fatalf("only %d queries sampled; the call must carry several", sampled)
	}
	hm.mu.Lock()
	defer hm.mu.Unlock()
	want := map[int]int{256: sampled, 44: sampled}
	if !reflect.DeepEqual(hm.heights, want) {
		t.Fatalf("block heights %v (height: blocks); want %v, one pair per sampling query", hm.heights, want)
	}
}

// heightLog records, in call order, the height of every walk BeginSampling
// announces, on itself and on every fork.
type heightLog struct {
	*made.Model
	log *[]int
}

func (h *heightLog) ForkModel() any { return &heightLog{Model: h.Model.Fork(), log: h.log} }

func (h *heightLog) BeginSampling(n int) {
	*h.log = append(*h.log, n)
	h.Model.BeginSampling(n)
}

// TestEstimateFusedWalksQueryWavesBackToBack: a serving goroutine walks each
// query's admission waves back to back before it picks up the next query. At
// W = 1 and S = 300 every sampling query's 256-row first-wave block is
// followed at once by its 44-row second-wave block, in batch order.
func TestEstimateFusedWalksQueryWavesBackToBack(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := fusedWorkload(t, tbl)
	hl := &heightLog{Model: testMADE(tbl.DomainSizes()), log: new([]int)}
	e := NewEstimator(hl, 300, 42)
	e.EnumThreshold = 0 // enumeration announces its own heights
	got := e.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: 1})
	var want []int
	for _, r := range got {
		if r.Samples == 300 {
			want = append(want, 256, 44)
		}
	}
	if len(want) < 6 {
		t.Fatalf("only %d queries sampled; the call must carry several", len(want)/2)
	}
	if !reflect.DeepEqual(*hl.log, want) {
		t.Fatalf("block heights in call order %v; want %v, each query's two waves back to back", *hl.log, want)
	}
}

// wideDomainTable is corrTable with column b widened to 300 codes, past the
// embedding threshold of the models above, so b is an embedded column:
// folded by GEMM and decoded through its embedding.
func wideDomainTable(t *testing.T, rows int, seed int64) *table.Table {
	t.Helper()
	src := corrTable(t, rows, seed)
	rng := rand.New(rand.NewSource(seed))
	domains := src.DomainSizes()
	domains[1] = 300
	codes := make([][]int32, len(domains))
	for c := range codes {
		codes[c] = append([]int32(nil), src.Cols[c].Codes...)
	}
	for r := range codes[1] {
		codes[1][r] += 12 * int32(rng.Intn(25))
	}
	tbl, err := table.FromCodes("wide", []string{"a", "b", "c", "d"}, domains, codes)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestEstimateFusedWorkersFollowGOMAXPROCS: Workers 0 means GOMAXPROCS, not
// the machine's CPU count, so a process limited to one P walks its queries on
// one goroutine and one core.
func TestEstimateFusedWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tbl := corrTable(t, 1500, 3)
	e := NewEstimator(testMADE(tbl.DomainSizes()), 300, 42)
	e.EnumThreshold = 40
	reg := obs.New()
	e.SetObserver(reg)
	e.EstimateFused(context.Background(), Requests(fusedWorkload(t, tbl)), ServeOptions{})
	if w := reg.Gauge(metricFusedWorkers).Value(); w != 1 {
		t.Fatalf("%s = %v under GOMAXPROCS(1) with Workers 0, want 1", metricFusedWorkers, w)
	}
}

// TestEstimateFusedWorkersGaugeCountsGoroutines: the gauge reads the
// goroutines a call walks on, not its Workers budget, which a batch smaller
// than the budget cannot use. One query at Workers 4 walks on one goroutine.
func TestEstimateFusedWorkersGaugeCountsGoroutines(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	e := NewEstimator(testMADE(tbl.DomainSizes()), 300, 42)
	e.EnumThreshold = 40
	reg := obs.New()
	e.SetObserver(reg)
	e.EstimateFused(context.Background(), Requests(fusedWorkload(t, tbl)[:1]), ServeOptions{Workers: 4})
	if w := reg.Gauge(metricFusedWorkers).Value(); w != 1 {
		t.Fatalf("%s = %v for one query at Workers 4, want 1", metricFusedWorkers, w)
	}
}
