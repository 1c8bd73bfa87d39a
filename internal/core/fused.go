package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// siteFusedWalk is the chaos fault point inside the fused block walk. It sits
// under walkBlock's recover, so an injected panic or error exercises the
// containment path: the block's query is re-served through walkPaths with a
// bit-identical answer.
var siteFusedWalk = faultinject.Site("core.fused.walk")

// This file implements the fused walk: the unit of model work is a *sample
// block*, the chunks one query runs in one admission wave stacked into one
// tall batch that flows through the trunk and head GEMMs together
// (BlockModel), instead of one CondBatch walk per 128-path chunk. A block
// holds one query, so every row walks the same columns and draws against the
// same valid lists.
//
// Determinism is the load-bearing wall: each query's chunk k draws from the
// stream seeded by mixSeed(seedFor(q), k) — exactly the streams the
// per-query walk (walkPaths) uses — and the model's block decode is
// row-independent, so a query's estimate is bit-identical however tall its
// blocks were, or whether it was served fused at all.
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
//     decoded column is the same for every row still in the zero-input
//     broadcast state, so it is computed once per (serve epoch, column) and
//     shared across every block and query (see firstWaveProbs).
//
// Shards and row ranges are all the parallelism a walk has: the model's
// kernels run on the goroutine that calls them (internal/made's block walk
// never fans out), so Workers = 1 walks on one core and Workers > 1 never
// nests one fan-out inside another. A serial walk decodes and draws in
// decodeTileRows tiles so each column's logits and probabilities stay in L2.

// maxFusedRows caps the height of one fused block. A query's wave of chunks
// is one block unless it holds more rows than this (only the last wave of a
// budget above 22 chunks does); it is then walked as several blocks.
const maxFusedRows = 2048

// maxFusedChunks is maxFusedRows in whole chunks.
const maxFusedChunks = maxFusedRows / anytimeChunk

// rowShardMin is the minimum block height worth splitting across row-shard
// goroutines: below it the handoff overhead exceeds the per-row model work.
const rowShardMin = 512

// fusedState holds one block walk's tall buffers, pooled per estimator so
// concurrent EstimateFused calls (coalescer dispatches overlapping, shard
// workers within one call) don't reallocate them per call.
type fusedState struct {
	codes   []int32
	weights []float64

	// probs holds block-high probability rows for row-sharded walks, which
	// decode a block in one pass. It grows on demand (blockProbs), so a serial
	// walk never allocates it: at maxFusedRows rows of the widest domain it
	// would be tens of megabytes on DMV.
	probs  [][]float64
	maxDom int

	// rngs persists one RNG per chunk of a block; walkBlock re-seeds them in
	// place (Seed reinitializes the generator exactly as a fresh NewSource
	// would), so the steady-state walk allocates no generator state.
	rngs []*rand.Rand

	// shared aliases a memoized first-wave probability vector by row, letting
	// the draw read a cached conditional through its usual absolute-row
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
// every active query walks 2 chunks, then 4 more, then everything left. The
// first two boundaries are where the adaptive budget
// (ServeOptions.TargetRelStdErr) may retire a query — the same boundaries
// targetWaveBoundary pins for the per-query walk.
var fusedWaves = [3][2]int{{0, 2}, {2, 6}, {6, math.MaxInt32}}

// EstimateFused serves the whole batch through the fused walk: a sampling
// query's chunks of one admission wave run as one tall block, scaled join
// queries like unscaled ones (the block draws its query's scale columns with
// drawScaledRows). Results align positionally with reqs and are bit-identical
// to EstimateBatchCtx (any worker count) with the same options — including
// adaptive-budget early stops — because both walks consume identical
// per-(query, chunk) RNG streams and check TargetRelStdErr at identical
// boundaries. Deadlines and cancellation, of ctx and of each request's own
// Ctx, are honored before each block; affected queries degrade exactly like
// the per-query walk (timing-dependent, so degraded budgets — unlike
// full-budget and target-stopped results — are not bit-reproducible).
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
	if _, ok := sc.model.(BlockModel); !ok {
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

	// Classify: failures, empty and enumerable queries are answered inline
	// (their work is bounded and a block buys nothing); sampling queries join
	// the fused walk.
	pend := make([]*sampleQuery, 0, len(reqs))
	for i, req := range reqs {
		fq, res := e.classify(ctx, sc, req, base+uint64(i), i, &opts, start)
		if fq != nil {
			pend = append(pend, fq)
			continue
		}
		out[i] = e.routeFallback(res, req.Region, &opts, time.Since(start))
	}

	if len(pend) > 0 {
		shards := min(workers, len(pend))
		inner := max(workers/shards, 1)
		if shards <= 1 {
			e.walkShard(ctx, sc, pend, inner, &opts)
		} else {
			e.runFusedShards(ctx, pend, shards, inner, &opts)
		}
	}
	for _, fq := range pend {
		out[fq.i] = e.routeFallback(fq.res, fq.reg, &opts, fq.retireAt.Sub(start))
	}
	return out
}

// runFusedShards partitions the pending queries round-robin into shards
// disjoint groups and walks each group on its own goroutine with its own
// pooled model replica and block buffers. The partition is deterministic
// (classification order) but results don't depend on it: a query's chunks
// all run in its shard, in chunk order, on streams keyed only by (query
// index, chunk index).
func (e *Estimator) runFusedShards(ctx context.Context, pend []*sampleQuery, shards, inner int, opts *ServeOptions) {
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
			e.walkShard(ctx, wsc, group, inner, opts)
		}(group)
	}
	wg.Wait()
}

// walkShard walks one shard's queries through the wave schedule on sc's
// replica with pooled block buffers. A block panic is contained to its query
// (runFusedWaves). A panic escaping the wave bookkeeping itself, or a
// replica that lost the block interface (forks share their parent's type, so
// it should not happen), leaves queries unfinished: each is re-served
// through walkPaths, so other shards never notice.
func (e *Estimator) walkShard(ctx context.Context, sc *scratch, group []*sampleQuery, inner int, opts *ServeOptions) {
	defer func() {
		recover()
		for _, fq := range group {
			if !fq.finished {
				e.reserve(ctx, sc, fq, opts)
			}
		}
	}()
	if bm, ok := sc.model.(BlockModel); ok {
		st := e.getFusedState()
		st.inner = inner
		e.runFusedWaves(ctx, sc, bm, st, group, opts)
		e.fusedPool.Put(st)
	}
}

// runFusedWaves drives the pending sampling queries to completion in three
// admission waves, wave-major: every query walks its chunks of a wave — one
// block, split only past maxFusedRows — before any query starts the next
// wave, and the adaptive budget is consulted at the wave boundaries. Each
// query's contexts and deadline are checked before each of its blocks. A
// panic inside a block poisons only that block: its query is re-served
// through walkPaths (same chunk streams, same answer), and the next block's
// BeginSampling resets the replica.
func (e *Estimator) runFusedWaves(ctx context.Context, sc *scratch, bm BlockModel, st *fusedState, pend []*sampleQuery, opts *ServeOptions) {
	skip := e.skipEnabled(sc.model)
	chunks := (e.samples + anytimeChunk - 1) / anytimeChunk
	for _, wave := range fusedWaves {
		hi := min(wave[1], chunks)
		for _, fq := range pend {
			for c0 := wave[0]; c0 < hi && !fq.finished; c0 += maxFusedChunks {
				if stop, err := fq.interrupted(ctx); err != nil {
					fq.finish(e.stopResult(fq, stop, err))
				} else if err := e.walkBlock(bm, st, fq, c0, min(c0+maxFusedChunks, hi), skip); err != nil {
					e.reserve(ctx, sc, fq, opts)
				}
			}
			// Wave boundary: retire a completed query; consult the adaptive
			// budget at the same chunk counts the per-query walk does.
			switch {
			case fq.finished:
			case fq.done >= e.samples:
				fq.finish(e.finalizeSample(fq.sum, fq.sumsq, fq.done, StopNone))
			case opts.TargetRelStdErr > 0 && targetWaveBoundary(fq.chunks) &&
				targetMet(fq.sum, fq.sumsq, fq.done, opts.TargetRelStdErr):
				fq.finish(e.finalizeSample(fq.sum, fq.sumsq, fq.done, StopTargetStdErr))
			}
		}
	}
}

func (fq *sampleQuery) finish(res Result) {
	fq.res = res
	fq.finished = true
	fq.retireAt = time.Now()
}

// reserve re-runs fq through the per-query walk from chunk 0 after its block
// panicked. Chunk streams are keyed by (query, chunk), so the restart
// reproduces exactly what the fused walk would have produced; a query whose
// own walk panics again fails alone with ErrPanicked.
func (e *Estimator) reserve(ctx context.Context, sc *scratch, fq *sampleQuery, opts *ServeOptions) {
	e.obs.fusedReserved.Inc()
	fq.sum, fq.sumsq, fq.done, fq.chunks = 0, 0, 0, 0
	fq.finish(e.walkPaths(ctx, sc, fq, opts.TargetRelStdErr))
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

// decodeFused decodes rows [0, n) of col into probs, row-sharded like
// advanceFused when the model supports concurrent range decodes.
func (e *Estimator) decodeFused(bm BlockModel, st *fusedState, probs [][]float64, col, n int) {
	if st.inner > 1 && n >= rowShardMin {
		if dec, ok := bm.(BlockRowDecoder); ok {
			dec.PrepareDecode(col)
			parallelRows(n, st.inner, func(a, b int) { bm.DecodeBlock(col, a, b, probs[a:b]) })
			return
		}
	}
	bm.DecodeBlock(col, 0, n, probs[:n])
}

// decodeTileRows is the height of one decode+draw pass of a serial walk.
// Every tile reuses the same pooled probability rows, so the softmax and the
// draw re-read what the decode just wrote while it is still in L2. The
// widest column sets the height: a 32-row tile of DMV's 2101-code valid_date
// holds 32 × 2101 × (4 + 8) B ≈ 0.8 MB of float32 logits and float64
// probabilities, which fits a 2 MB L2 beside the 0.54 MB packed decode
// weights; a 128-row chunk would hold 3.2 MB and spill. On the DMV benchmark
// model 32 rows measured best: 16- and 64-row tiles cost 2–3% more CPU per
// query, 256-row tiles 12% more. Row-sharded walks decode a block in one
// pass instead, each worker's range its own locality domain.
const decodeTileRows = 32

// decodeDraw decodes column col for the block's n rows and draws their
// codes. A serial walk decodes in decodeTileRows-row tiles and draws each
// tile's rows before decoding the next. Tiling is invisible to results:
// decode is row-independent given the advanced trunk state, and drawBlock
// draws a chunk in pieces exactly as it draws it whole. When store is true
// the first row's conditional is published to the first-wave cache.
func (e *Estimator) decodeDraw(bm BlockModel, st *fusedState, fq *sampleQuery, codes []int32, weights []float64, n, col int, store bool) {
	if st.inner > 1 {
		probs := st.blockProbs(n)
		e.decodeFused(bm, st, probs, col, n)
		if store {
			e.storeFirstWave(col, probs[0])
		}
		e.drawBlock(st, fq, codes, col, probs, weights, 0, n)
		return
	}
	probs := st.tileView
	for t0 := 0; t0 < n; t0 += decodeTileRows {
		t1 := min(t0+decodeTileRows, n)
		for r := t0; r < t1; r++ {
			probs[r] = st.tileProbs[r-t0]
		}
		bm.DecodeBlock(col, t0, t1, probs[t0:t1])
		if store && t0 == 0 {
			e.storeFirstWave(col, probs[0])
		}
		e.drawBlock(st, fq, codes, col, probs, weights, t0, t1)
	}
}

// drawBlock runs the draw step at model position col over rows [r0, r1) of
// the block, each chunk's rows from that chunk's stream: the scaled draw on
// a scale column of the query, the in-range draw otherwise — the choice
// walkPaths makes per column. Rows are drawn in ascending order, so a chunk
// drawn one tile at a time consumes its stream exactly as walkPaths does.
func (e *Estimator) drawBlock(st *fusedState, fq *sampleQuery, codes []int32, col int, probs [][]float64, weights []float64, r0, r1 int) {
	nc := len(fq.reg.Cols)
	inv := fq.scaleAt(col)
	isAll := fq.reg.Cols[e.colAt(col)].IsAll()
	for r0 < r1 {
		j := r0 / anytimeChunk
		end := min(r1, (j+1)*anytimeChunk)
		if inv != nil {
			drawScaledRows(st.rngs[j], inv, codes, nc, col, probs, weights, r0, end)
		} else {
			drawRows(st.rngs[j], isAll, fq.valid[col], codes, nc, col, probs, weights, r0, end)
		}
		r0 = end
	}
}

// skipDecodes reports whether a skipping walk decodes model position col for
// fq: a restricted column, or one of its scale columns (never skipped).
func (e *Estimator) skipDecodes(fq *sampleQuery, col int) bool {
	return !fq.reg.Cols[e.colAt(col)].IsAll() || fq.scaleAt(col) != nil
}

// walkBlock runs chunks [c0, c1) of one query as a single tall block: chunk
// c0+j fills rows [j·anytimeChunk, (j+1)·anytimeChunk) and draws from its own
// stream, so the block's draws are the ones walkPaths makes chunk by chunk.
// Every row walks to the query's last restricted (or scale) column. The
// default walk decodes and draws every column on the way — wildcards have
// mass 1 but still consume a draw — while a skipping walk jumps the columns
// the query does not decode (skipDecodes), which the model then treats as
// absent. The first column the walk decodes (column 0, or the first
// restricted or scale column when skipping) sees only the zero-input
// broadcast state every row shares, so its conditional comes from, or goes
// into, the first-wave cache. Returns a
// wrapped ErrPanicked if the model panicked (the replica's walk state is then
// poisoned until the next BeginSampling).
//
// A serial walk (st.inner == 1) performs no per-block heap allocations at any
// block height: RNGs and every tall buffer are pooled in st, the model's own
// scratch reuse (capacity-preserving BeginSampling, packed-weight caches,
// pooled view headers) covers the rest, and the model's kernels never fan
// out on their own, so no product pays a goroutine handoff
// (TestEstimateFusedWalkZeroAlloc pins this at exactly zero, on a small
// block and on a 2048-row block of a DMV-wide model). Row-sharded walks pay
// parallelRows' handoffs, O(st.inner) per advance and decode.
func (e *Estimator) walkBlock(bm BlockModel, st *fusedState, fq *sampleQuery, c0, c1 int, skip bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: fused block: %v", ErrPanicked, r)
		}
	}()
	if err := faultinject.Point(siteFusedWalk); err != nil {
		return err
	}
	n := min(e.samples, c1*anytimeChunk) - c0*anytimeChunk
	codes := st.codes[:n*len(fq.reg.Cols)]
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
	// One RNG per chunk, re-seeded in place exactly like the per-query walk's
	// chunk stream. (Seed on the default source reinitializes the generator
	// identically to a fresh NewSource, without the allocation.)
	for len(st.rngs) < c1-c0 {
		st.rngs = append(st.rngs, rand.New(rand.NewSource(0)))
	}
	seed := e.seedFor(fq.q)
	for c := c0; c < c1; c++ {
		st.rngs[c-c0].Seed(mixSeed(seed, int64(c)))
	}

	bm.BeginSampling(n)
	first := true
	for col := 0; col <= fq.last; col++ {
		if skip && !e.skipDecodes(fq, col) {
			continue
		}
		// The advance runs even when the decode is served from the cache: it
		// folds the previously drawn column's codes and keeps the model's
		// column cursor in step.
		e.advanceFused(bm, st, codes, n, col)
		if first {
			if cached := e.firstWaveProbs(col); cached != nil {
				for r := 0; r < n; r++ {
					st.shared[r] = cached
				}
				e.drawBlock(st, fq, codes, col, st.shared, weights, 0, n)
				first = false
				continue
			}
		}
		e.decodeDraw(bm, st, fq, codes, weights, n, col, first)
		first = false
	}
	// Fold the chunks' weights back into their query in chunk order, so the
	// accumulation order — and therefore every bit of sum and sumsq —
	// matches walkPaths' chunk loop.
	for r0 := 0; r0 < n; r0 += anytimeChunk {
		fq.add(weights[r0:min(r0+anytimeChunk, n)])
	}
	e.obs.fusedBlocks.Inc()
	return nil
}
