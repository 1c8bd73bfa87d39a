package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// siteFusedWalk is the chaos fault point inside the fused block walk. It sits
// under walkBlock's recover, so an injected panic or error exercises the
// containment path: the unfinished lanes are re-served individually with
// bit-identical answers.
var siteFusedWalk = faultinject.Site("core.fused.walk")

// This file implements fused cross-query serving: the unit of model work is
// a *sample block* — chunks of many concurrent queries' progressive-sampling
// paths stacked into one tall batch that flows through the trunk and head
// GEMMs together. Per-column fixed costs (band refresh bookkeeping, packed
// weight lookups, kernel dispatch) amortize over every in-flight query
// instead of being paid once per query per column.
//
// Determinism is the load-bearing wall: each query's chunk k draws from the
// stream seeded by mixSeed(seedFor(q), k) — exactly the streams the
// per-query walk (walkPaths) uses — and the model's block decode is
// row-independent, so a query's estimate is bit-identical no matter which
// queries it shared blocks with, how tall the blocks were, or whether it was
// served fused at all.
//
// Parallelism layers on top of that invariant without touching it:
//
//   - *shard parallelism*: the pending queries are partitioned round-robin
//     (by deterministic classification order) into up to Workers disjoint
//     groups, each driven through the full wave schedule on its own pooled
//     model replica. A query's chunks all live in its shard and accumulate in
//     chunk order, so shard count never changes a single bit of any result.
//   - *row parallelism*: inside one walk, blocks tall enough to amortize the
//     goroutine handoff split their trunk advance and head decode over
//     disjoint row ranges (BlockRowAdvancer / BlockRowDecoder). Both steps
//     are row-independent, so the split is bit-identical to the full-height
//     call.
//   - *first-wave memoization*: the conditional decoded at a walk's first
//     restricted position is the same for every row still in the zero-input
//     broadcast state, so it is computed once per (serve epoch, column) and
//     shared across every lane, block, and query (see firstWaveProbs).
//
// Shards and row ranges are all the parallelism a walk has: the model's
// kernels run on the goroutine that calls them (internal/made's block walk
// never fans out), so Workers = 1 walks on one core and Workers > 1 never
// nests one fan-out inside another. A serial walk decodes and draws in decodeTileRows
// tiles so each column's logits and probabilities stay in L2.

// maxFusedRows caps the height of one fused block. Taller blocks amortize
// more fixed cost but grow the activation and probability buffers linearly;
// past a couple thousand rows the GEMMs are fully amortized and the extra
// height only costs memory.
const maxFusedRows = 2048

// rowShardMin is the minimum block height worth splitting across row-shard
// goroutines: below it the handoff overhead exceeds the per-row model work.
const rowShardMin = 512

// fusedLane is one chunk of one query inside a block walk.
type fusedLane struct {
	fq    *sampleQuery
	chunk int // chunk index within the query (seeds the lane RNG)
	n     int // rows
	r0    int // row offset within its block, assigned at pack time
}

// fusedState holds one block walk's tall buffers, pooled per estimator so
// concurrent EstimateFused calls (coalescer dispatches overlapping, shard
// workers within one call) don't reallocate them per call.
type fusedState struct {
	codes   []int32
	weights []float64

	// probs holds block-high probability rows for row-sharded walks, which
	// decode a run in one pass. It grows on demand (blockProbs), so a serial
	// walk never allocates it: at maxFusedRows rows of the widest domain it
	// would be tens of megabytes on DMV.
	probs  [][]float64
	maxDom int

	// laneArena backs the wave's lanes by value; lanes holds pointers into it
	// (built only after the arena stops growing). Pooling both keeps lane
	// gathering allocation-free across waves and calls.
	laneArena []fusedLane
	lanes     []*fusedLane

	// rngs persists one RNG per lane slot; walkBlock re-seeds them in place
	// (Seed reinitializes the generator exactly as a fresh NewSource would),
	// so the steady-state walk allocates no generator state.
	rngs []*rand.Rand

	// shared aliases memoized first-wave probability vectors by row, letting
	// drawRows read a cached conditional through its usual absolute-row
	// indexing without copying it per row.
	shared [][]float64

	// tileProbs is a decodeTileRows-high pool of probability rows, and
	// tileView aliases them at absolute block rows (like shared). Serial
	// tiled decodes write here instead of st.probs so every tile of a tall
	// block reuses the same small, cache-resident set of rows — cycling
	// through maxFusedRows distinct probs rows per column is what made the
	// fused softmax/draw memory-bound at W=1.
	tileProbs [][]float64
	tileView  [][]float64

	// inner is this walk's row-shard budget: how many goroutines a single
	// tall block may fan its advance/decode across (1 = serial).
	inner int
}

func (e *Estimator) getFusedState() *fusedState {
	if st, ok := e.fusedPool.Get().(*fusedState); ok {
		return st
	}
	maxDom := 0
	for _, d := range e.model.DomainSizes() {
		if d > maxDom {
			maxDom = d
		}
	}
	st := &fusedState{
		codes:     make([]int32, maxFusedRows*e.model.NumCols()),
		weights:   make([]float64, maxFusedRows),
		maxDom:    maxDom,
		shared:    make([][]float64, maxFusedRows),
		tileProbs: make([][]float64, decodeTileRows),
		tileView:  make([][]float64, maxFusedRows),
		inner:     1,
	}
	for i := range st.tileProbs {
		st.tileProbs[i] = make([]float64, maxDom)
	}
	return st
}

// blockProbs returns st.probs with rows [0, n) allocated, growing it on the
// first decode that reaches row n-1.
func (st *fusedState) blockProbs(n int) [][]float64 {
	if st.probs == nil {
		st.probs = make([][]float64, 0, maxFusedRows)
	}
	for len(st.probs) < n {
		st.probs = append(st.probs, make([]float64, st.maxDom))
	}
	return st.probs
}

// fusedWaves are the per-query chunk ranges of the three scheduling waves:
// every active query contributes 2 chunks, then 4 more, then everything
// left. The first two boundaries are where the adaptive budget
// (ServeOptions.TargetRelStdErr) may retire a query — the same boundaries
// targetWaveBoundary pins for the per-query walk.
var fusedWaves = [3][2]int{{0, 2}, {2, 6}, {6, math.MaxInt32}}

// EstimateFused serves the whole batch through the fused cross-query
// scheduler: every query's sample chunks are packed with its peers' into
// shared tall blocks, scaled join queries beside unscaled ones (a lane draws
// its query's scale columns with drawScaledRows). Results align positionally
// with reqs and are bit-identical to EstimateBatchCtx (any worker count) with
// the same options — including adaptive-budget early stops — because both paths
// consume identical per-(query, chunk) RNG streams and check TargetRelStdErr
// at identical boundaries. Deadline and cancellation are honored between
// blocks; affected queries degrade exactly like the per-query walk
// (timing-dependent, so degraded budgets — unlike full-budget and
// target-stopped results — are not bit-reproducible).
//
// opts.Workers (GOMAXPROCS when 0, rejected with ErrInvalidWorkers when
// negative) is spent on two levels: pending queries are partitioned into up
// to Workers shards walked concurrently on pooled model replicas, and any
// leftover budget (Workers / shards) fans the tall GEMMs of each block over
// row ranges. The model's kernels add no goroutines of their own, so a call
// keeps at most Workers cores busy. Both splits are bit-identical to the
// single-threaded walk, so the worker count is purely a throughput knob.
// Models served behind a mutex (no Forkable) always run single-threaded.
//
// Models that don't implement BlockModel (through their serving forks) fall
// back to EstimateBatchCtx.
func (e *Estimator) EstimateFused(ctx context.Context, reqs []Request, opts ServeOptions) []Result {
	out := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Workers < 0 {
		err := fmt.Errorf("%w: got %d", ErrInvalidWorkers, opts.Workers)
		for i := range out {
			out[i] = Result{Source: SourceFailed, Err: err, ModelVersion: e.version.Load()}
		}
		return out
	}
	sc := e.acquire()
	bm, ok := sc.model.(BlockModel)
	if !ok {
		e.release(sc)
		return e.EstimateBatchCtx(ctx, reqs, opts)
	}
	defer e.release(sc)

	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if !e.forkable {
		// Non-forkable models serialize on the estimator mutex; a second
		// acquire from a shard worker would deadlock against our own hold.
		workers = 1
	}
	e.obs.fusedWorkers.Set(float64(workers))

	base := e.nextQuery.Add(uint64(len(reqs))) - uint64(len(reqs))
	start := time.Now()
	deadline := queryDeadline(ctx, &opts, start)

	// Classify: failures, empty and enumerable queries are answered inline
	// (their work is bounded and fusion buys nothing); sampling queries join
	// the fused walk.
	pend := make([]*sampleQuery, 0, len(reqs))
	for i, req := range reqs {
		fq, res := e.classify(ctx, sc, req, base+uint64(i), i, &opts)
		if fq != nil {
			pend = append(pend, fq)
			continue
		}
		out[i] = e.routeFallback(res, req.Region, &opts, time.Since(start))
	}

	if len(pend) > 0 {
		shards := workers
		if shards > len(pend) {
			shards = len(pend)
		}
		inner := workers / shards
		if inner < 1 {
			inner = 1
		}
		if shards <= 1 {
			st := e.getFusedState()
			st.inner = inner
			e.runFusedWaves(ctx, sc, bm, st, pend, deadline, &opts)
			e.fusedPool.Put(st)
		} else {
			e.runFusedShards(ctx, pend, shards, inner, deadline, &opts)
		}
	}
	for _, fq := range pend {
		out[fq.i] = e.routeFallback(fq.res, fq.reg, &opts, fq.retireAt.Sub(start))
	}
	return out
}

// runFusedShards partitions the pending queries round-robin into shards
// disjoint groups and walks each group through the full wave schedule on its
// own goroutine with its own pooled model replica and block buffers. The
// partition is deterministic (classification order) but results don't depend
// on it: a query's chunks all run in its shard, in chunk order, on streams
// keyed only by (query index, chunk index). A panic inside one shard is
// contained to it — walkBlock's recover re-serves that shard's unfinished
// queries individually, and a panic escaping the wave bookkeeping itself is
// caught here with the same re-serve, so other shards never notice.
func (e *Estimator) runFusedShards(ctx context.Context, pend []*sampleQuery, shards, inner int, deadline time.Time, opts *ServeOptions) {
	groups := make([][]*sampleQuery, shards)
	for i, fq := range pend {
		groups[i%shards] = append(groups[i%shards], fq)
	}
	var wg sync.WaitGroup
	for _, group := range groups {
		wg.Add(1)
		go func(group []*sampleQuery) {
			defer wg.Done()
			wsc := e.acquire()
			defer e.release(wsc)
			defer func() {
				if r := recover(); r != nil {
					e.reserveIndividually(ctx, wsc, group, deadline, opts)
				}
			}()
			wbm, ok := wsc.model.(BlockModel)
			if !ok {
				// A replica that lost the block interface (shouldn't happen —
				// forks share the parent's type) still gets correct answers.
				e.reserveIndividually(ctx, wsc, group, deadline, opts)
				return
			}
			st := e.getFusedState()
			st.inner = inner
			e.runFusedWaves(ctx, wsc, wbm, st, group, deadline, opts)
			e.fusedPool.Put(st)
		}(group)
	}
	wg.Wait()
}

// runFusedWaves drives the pending sampling queries to completion: three
// admission waves, each packed into blocks of at most maxFusedRows rows. A
// panic inside a block poisons the whole block's model state, so every
// still-unfinished query is re-served individually (same query indices →
// same chunk streams → same answers), keeping the failure contained to the
// query that caused it.
func (e *Estimator) runFusedWaves(ctx context.Context, sc *scratch, bm BlockModel, st *fusedState, pend []*sampleQuery, deadline time.Time, opts *ServeOptions) {
	skip := e.skipEnabled(sc.model)
	nc := sc.model.NumCols()
	for _, wave := range fusedWaves {
		// Gather this wave's lanes: per unfinished query, its chunks in
		// [wave start, wave end), clamped to the budget. Lanes live in the
		// pooled arena; the pointer slice is built only after the arena stops
		// growing (appends may move it).
		arena := st.laneArena[:0]
		for _, fq := range pend {
			if fq.finished {
				continue
			}
			total := (e.samples + anytimeChunk - 1) / anytimeChunk
			hi := wave[1]
			if hi > total {
				hi = total
			}
			for c := wave[0]; c < hi; c++ {
				n := e.samples - c*anytimeChunk
				if n > anytimeChunk {
					n = anytimeChunk
				}
				arena = append(arena, fusedLane{fq: fq, chunk: c, n: n})
			}
		}
		st.laneArena = arena
		lanes := st.lanes[:0]
		for i := range arena {
			lanes = append(lanes, &arena[i])
		}
		st.lanes = lanes
		// Order the whole wave by last restricted column, descending (stable:
		// a query's chunks keep their chunk order). Every block packed from
		// this list inherits the order, which is the walk's retirement
		// invariant — lanes done sampling are always a block suffix.
		sort.SliceStable(lanes, func(a, b int) bool { return lanes[a].fq.last > lanes[b].fq.last })
		// Pack lanes into height-capped blocks, preserving lane order so a
		// query's chunks accumulate in chunk order.
		for len(lanes) > 0 {
			if err := ctx.Err(); err != nil {
				e.stopFused(pend, StopCancel, err)
				return
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				e.stopFused(pend, StopDeadline, ErrBudgetExhausted)
				return
			}
			rows, k := 0, 0
			for k < len(lanes) && rows+lanes[k].n <= maxFusedRows {
				rows += lanes[k].n
				k++
			}
			if k == 0 {
				k = 1 // a single over-tall lane cannot happen (chunk ≤ block), but never stall
			}
			if err := e.walkBlock(bm, st, lanes[:k], nc, skip); err != nil {
				e.reserveIndividually(ctx, sc, pend, deadline, opts)
				return
			}
			lanes = lanes[k:]
		}
		// Wave boundary: retire completed queries; consult the adaptive
		// budget at the same chunk counts the per-query walk does.
		alive := false
		for _, fq := range pend {
			if fq.finished {
				continue
			}
			switch {
			case fq.done >= e.samples:
				fq.finish(e.finalizeSample(fq.sum, fq.sumsq, fq.done, StopNone))
			case opts.TargetRelStdErr > 0 && targetWaveBoundary(fq.chunks) &&
				targetMet(fq.sum, fq.sumsq, fq.done, opts.TargetRelStdErr):
				fq.finish(e.finalizeSample(fq.sum, fq.sumsq, fq.done, StopTargetStdErr))
			default:
				alive = true
			}
		}
		if !alive {
			return
		}
	}
}

func (fq *sampleQuery) finish(res Result) {
	fq.res = res
	fq.finished = true
	fq.retireAt = time.Now()
}

// stopFused finalizes every unfinished query after a batch-wide stop
// (deadline or cancellation): queries with completed chunks degrade to the
// anytime estimate, queries with none fail.
func (e *Estimator) stopFused(pend []*sampleQuery, stop StopReason, err error) {
	for _, fq := range pend {
		if fq.finished {
			continue
		}
		if fq.done == 0 {
			fq.finish(Result{Source: SourceFailed, Err: err})
			continue
		}
		fq.finish(e.finalizeSample(fq.sum, fq.sumsq, fq.done, stop))
	}
}

// reserveIndividually re-runs every unfinished query through the per-query
// walk after a block panic. Chunk streams are keyed by (query, chunk), so
// restarting a query from chunk 0 reproduces exactly what the fused walk
// would have produced; the panicking query fails alone with ErrPanicked.
func (e *Estimator) reserveIndividually(ctx context.Context, sc *scratch, pend []*sampleQuery, deadline time.Time, opts *ServeOptions) {
	for _, fq := range pend {
		if fq.finished {
			continue
		}
		e.obs.fusedReserved.Inc()
		fq.sum, fq.sumsq, fq.done, fq.chunks = 0, 0, 0, 0
		fq.finish(e.walkPaths(ctx, sc, fq, deadline, opts.TargetRelStdErr))
	}
}

// parallelRows splits rows [0, n) into up to workers contiguous ranges and
// runs fn on each concurrently, rethrowing the first worker panic on the
// calling goroutine so walkBlock's recover sees it exactly like a serial
// panic. Callers gate on workers > 1, so the serial walk never pays the
// closure or goroutine cost.
func parallelRows(n, workers int, fn func(r0, r1 int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	var mu sync.Mutex
	var pv any
	for r0 := 0; r0 < n; r0 += chunk {
		r1 := r0 + chunk
		if r1 > n {
			r1 = n
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if pv == nil {
						pv = r
					}
					mu.Unlock()
				}
			}()
			fn(r0, r1)
		}(r0, r1)
	}
	wg.Wait()
	if pv != nil {
		panic(pv)
	}
}

// advanceFused advances the block's trunk state to col, fanning the
// row-independent fold + band refresh across st.inner goroutines when the
// model supports ranged advances and the block is tall enough to amortize
// the handoff. Bit-identical to AdvanceBlock either way (the ranged protocol
// guarantees it; see core.BlockRowAdvancer).
func (e *Estimator) advanceFused(bm BlockModel, st *fusedState, codes []int32, n, col int) {
	if st.inner > 1 && n >= rowShardMin {
		if adv, ok := bm.(BlockRowAdvancer); ok {
			adv.BeginAdvanceRows(n, col)
			parallelRows(n, st.inner, func(r0, r1 int) { adv.AdvanceRows(codes, col, r0, r1) })
			adv.FinishAdvanceRows(col)
			return
		}
	}
	bm.AdvanceBlock(codes, n, col)
}

// decodeFused decodes rows [r0, r1) of col into probs (absolute row
// indexing), row-sharded like advanceFused when the model supports
// concurrent range decodes.
func (e *Estimator) decodeFused(bm BlockModel, st *fusedState, probs [][]float64, col, r0, r1 int) {
	if st.inner > 1 && r1-r0 >= rowShardMin {
		if dec, ok := bm.(BlockRowDecoder); ok {
			dec.PrepareDecode(col)
			parallelRows(r1-r0, st.inner, func(a, b int) {
				bm.DecodeBlock(col, r0+a, r0+b, probs[r0+a:r0+b])
			})
			return
		}
	}
	bm.DecodeBlock(col, r0, r1, probs[r0:r1])
}

// decodeTileRows is the height of one decode+draw pass of a serial walk.
// The rows are fixed tiles of the block, not lanes: every tile reuses the
// same pooled probability rows, so the softmax and the draw re-read what the
// decode just wrote while it is still in L2. The widest column sets the
// height: a 32-row tile of DMV's 2101-code valid_date holds 32 × 2101 ×
// (4 + 8) B ≈ 0.8 MB of float32 logits and float64 probabilities, which fits
// a 2 MB L2 beside the 0.54 MB packed decode weights; a 128-row lane would
// hold 3.2 MB and spill. On the DMV benchmark model 32 rows measured best:
// 16- and 64-row tiles cost 2–3% more CPU per query, 256-row tiles 12% more.
// Row-sharded walks decode a run in one pass instead, each worker's range its
// own locality domain.
const decodeTileRows = 32

// decodeDraw decodes column col for the contiguous lanes[j:k] and immediately
// draws their codes. A serial walk decodes the run in decodeTileRows-row
// tiles and draws each tile's rows before decoding the next; a lane that
// spans tiles is drawn in pieces, in ascending row order with its own rng.
// Tiling is invisible to results: decode is row-independent given the
// advanced trunk state, and each lane's draws consume only its own rng in
// row order. When store is true the first decoded row's conditional is
// published to the first-wave cache (the caller guarantees lanes[j:k] are
// first-wave lanes sharing it).
func (e *Estimator) decodeDraw(bm BlockModel, st *fusedState, lanes []*fusedLane, rngs []*rand.Rand, j, k, col, nc int, store bool, codes []int32, weights []float64) {
	r0, r1 := lanes[j].r0, lanes[k-1].r0+lanes[k-1].n
	if st.inner > 1 {
		probs := st.blockProbs(r1)
		e.decodeFused(bm, st, probs, col, r0, r1)
		if store {
			e.storeFirstWave(col, probs[r0])
		}
		for ; j < k; j++ {
			e.drawLane(rngs[j], lanes[j], codes, nc, col, probs, weights, lanes[j].r0, lanes[j].r0+lanes[j].n)
		}
		return
	}
	probs := st.tileView
	for t0 := r0; t0 < r1; t0 += decodeTileRows {
		t1 := min(t0+decodeTileRows, r1)
		for r := t0; r < t1; r++ {
			probs[r] = st.tileProbs[r-t0]
		}
		bm.DecodeBlock(col, t0, t1, probs[t0:t1])
		if store {
			e.storeFirstWave(col, probs[t0])
			store = false
		}
		// Draw every lane's share of [t0, t1); a lane that runs past t1
		// stays lanes[j] for the next tile.
		for ; j < k && lanes[j].r0 < t1; j++ {
			ln := lanes[j]
			end := ln.r0 + ln.n
			e.drawLane(rngs[j], ln, codes, nc, col, probs, weights, max(ln.r0, t0), min(end, t1))
			if end > t1 {
				break
			}
		}
	}
}

// drawLane runs one lane's draw step at model position col over rows
// [r0, r1) of the lane: the scaled draw on a scale column of its query, the
// in-range draw otherwise — the choice walkPaths makes per column.
func (e *Estimator) drawLane(rng *rand.Rand, ln *fusedLane, codes []int32, nc, col int, probs [][]float64, weights []float64, r0, r1 int) {
	if inv := ln.fq.scaleAt(col); inv != nil {
		drawScaledRows(rng, inv, codes, nc, col, probs, weights, r0, r1)
		return
	}
	drawRows(rng, ln.fq.reg.Cols[e.colAt(col)].IsAll(), ln.fq.valid[col], codes, nc, col, probs, weights, r0, r1)
}

// skipDecodes reports whether a skipping walk decodes model position col for
// fq: a restricted column, or one of its scale columns (never skipped).
func (e *Estimator) skipDecodes(fq *sampleQuery, col int) bool {
	return !fq.reg.Cols[e.colAt(col)].IsAll() || fq.scaleAt(col) != nil
}

// walkBlock runs one fused sample block: the lanes' chunks stacked into a
// single tall walk. Lanes arrive ordered by their query's last restricted
// column, descending (the wave sort), so lanes done sampling are always a
// suffix — the active batch stays a prefix and only ever shrinks, which is
// the model's AdvanceBlock contract. Returns a wrapped ErrPanicked if the
// model panicked (block state is then poisoned; see reserveIndividually).
//
// A serial walk (st.inner == 1) performs no per-block heap allocations at any
// block height: lanes, RNGs, and every tall buffer are pooled in st, the
// model's own scratch reuse (capacity-preserving BeginSampling, packed-weight
// caches, pooled view headers) covers the rest, and the model's kernels never
// fan out on their own, so no product pays a goroutine handoff
// (TestEstimateFusedWalkZeroAlloc pins this at exactly zero, on a small
// block and on a 2048-row block of a DMV-wide model). Row-sharded walks pay
// parallelRows' handoffs, O(st.inner) per advance and decode.
func (e *Estimator) walkBlock(bm BlockModel, st *fusedState, lanes []*fusedLane, nc int, skip bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: fused block: %v", ErrPanicked, r)
		}
	}()
	if err := faultinject.Point(siteFusedWalk); err != nil {
		return err
	}
	n := 0
	for _, ln := range lanes {
		ln.r0 = n
		n += ln.n
	}
	codes := st.codes[:n*nc]
	fill := int32(0)
	if skip {
		fill = -1
	}
	for i := range codes {
		codes[i] = fill
	}
	weights := st.weights[:n]
	for i := range weights {
		weights[i] = 1
	}
	// One RNG per lane, re-seeded in place exactly like the sequential
	// path's chunk stream: the draws a lane consumes are its own stream
	// regardless of packing. (Seed on the default source reinitializes the
	// generator identically to a fresh NewSource, without the allocation.)
	for len(st.rngs) < len(lanes) {
		st.rngs = append(st.rngs, rand.New(rand.NewSource(0)))
	}
	rngs := st.rngs
	for j, ln := range lanes {
		rngs[j].Seed(mixSeed(e.seedFor(ln.fq.q), int64(ln.chunk)))
	}

	bm.BeginSampling(n)
	nActive, act := n, len(lanes)
	for col := 0; col <= lanes[0].fq.last; col++ {
		for act > 0 && lanes[act-1].fq.last < col {
			act--
			nActive -= lanes[act].n
		}
		if act == 0 {
			break
		}
		if !skip {
			// Every active lane decodes and draws through every column —
			// wildcards have mass 1 but still consume a draw, matching the
			// default sequential walk. Column 0 is decoded from the
			// zero-input broadcast state every row shares, so its
			// conditional is memoized per serve epoch; the advance still
			// runs (it is the model's walk bookkeeping — a no-op refresh
			// right after BeginSampling), only the decode GEMMs are skipped.
			e.advanceFused(bm, st, codes, nActive, col)
			var cached []float64
			if col == 0 {
				cached = e.firstWaveProbs(0)
			}
			if cached != nil {
				for r := 0; r < nActive; r++ {
					st.shared[r] = cached
				}
				for j, ln := range lanes[:act] {
					e.drawLane(rngs[j], ln, codes, nc, col, st.shared, weights, ln.r0, ln.r0+ln.n)
				}
			} else {
				e.decodeDraw(bm, st, lanes, rngs, 0, act, col, nc, col == 0, codes, weights)
			}
			continue
		}
		// Skip mode: only lanes restricting this column, or scaling by it,
		// decode it; if none do, the whole block jumps the column (the model
		// treats it as absent). Decodes run per maximal contiguous run of
		// needing lanes, split further into sub-runs of first-wave lanes
		// (fq.first == col): those lanes skipped every earlier column, so
		// their rows still hold the zero-input broadcast state and their
		// conditional is the memoized first-wave vector for col. A lane that
		// decoded a scale column earlier has left that state, and its first
		// restricted column is past fq.first, so the memo never serves it.
		j := 0
		advanced := false
		for j < act {
			if !e.skipDecodes(lanes[j].fq, col) {
				j++
				continue
			}
			k := j
			for k < act && e.skipDecodes(lanes[k].fq, col) {
				k++
			}
			if !advanced {
				// The advance must run even when every decode below is
				// served from cache: it folds the previously decoded
				// column's codes and keeps the model's column cursor in
				// step, so the codes drawn here get folded at the next
				// advance.
				e.advanceFused(bm, st, codes, nActive, col)
				advanced = true
			}
			for j < k {
				m := j
				fw := lanes[j].fq.first == col
				for m < k && (lanes[m].fq.first == col) == fw {
					m++
				}
				if fw {
					if cached := e.firstWaveProbs(col); cached != nil {
						r0, r1 := lanes[j].r0, lanes[m-1].r0+lanes[m-1].n
						for r := r0; r < r1; r++ {
							st.shared[r] = cached
						}
						for ; j < m; j++ {
							ln := lanes[j]
							e.drawLane(rngs[j], ln, codes, nc, col, st.shared, weights, ln.r0, ln.r0+ln.n)
						}
						continue
					}
				}
				e.decodeDraw(bm, st, lanes, rngs, j, m, col, nc, fw, codes, weights)
				j = m
			}
		}
	}
	// Fold the lanes' weights back into their queries. Lane order within a
	// query is chunk order (the stable sort keeps it), so the accumulation
	// order — and therefore every bit of sum and sumsq — matches walkPaths'
	// chunk loop.
	for _, ln := range lanes {
		ln.fq.add(weights[ln.r0 : ln.r0+ln.n])
	}
	e.obs.fusedBlocks.Inc()
	return nil
}
