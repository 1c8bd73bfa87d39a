package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/faultinject"
)

// siteFusedWalk is the chaos fault point inside the fused block walk. It sits
// under walkBlock's recover, so an injected panic or error exercises the
// containment path: the block's query restarts on CondBatch steps with a
// bit-identical answer.
var siteFusedWalk = faultinject.Site("core.fused.walk")

// This file implements the block step of the per-query driver (walkQuery):
// the unit of model work is a *sample block*, the chunks one query runs in
// one admission wave stacked into one tall batch that flows through the
// trunk and head GEMMs together (BlockModel), instead of one CondBatch walk
// per 128-path chunk. A block holds one query, so every row walks the same
// columns and draws against the same valid lists.
//
// Determinism is the load-bearing wall: each query's chunk k draws from the
// stream seeded by mixSeed(seedFor(q), k) — exactly the stream the CondBatch
// step (walkChunk) uses — and the model's block decode is row-independent,
// so a query's estimate is bit-identical however tall its blocks were, or
// whether it was served fused at all.
//
// Parallelism layers on top of that invariant without touching it:
//
//   - *query parallelism*: the batch scheduler (serveBatch) runs up to
//     Workers goroutines, each pulling whole queries off the batch and
//     walking them on its own pooled model replica and block buffers. A
//     query's chunks all run on one goroutine and accumulate in chunk order,
//     so the goroutine count never changes a single bit of any result.
//   - *row parallelism*: budget left over when the batch holds fewer queries
//     than Workers fans the trunk advance and head decode of blocks tall
//     enough to amortize the goroutine handoff over disjoint row ranges
//     (BlockRowAdvancer / BlockRowDecoder). Both steps are row-independent,
//     so the split is bit-identical to the full-height call.
//   - *first-wave memoization*: the conditional decoded at a walk's first
//     decoded column is the same for every row still in the zero-input
//     broadcast state, so it is computed once per (serve epoch, column) and
//     shared across every block and query (see firstWaveProbs).
//
// Queries and row ranges are all the parallelism a walk has: the model's
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
// concurrent EstimateFused calls (coalescer dispatches overlapping, serving
// goroutines within one call) don't reallocate them per call.
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

// EstimateFused serves the batch exactly like EstimateBatchCtx — the same
// scheduler, classifier and per-query driver (serveBatch, walkQuery) —
// except that a sampling query's chunks of one admission wave (2 chunks,
// then 4, then the rest) run as one tall block instead of one CondBatch walk
// per chunk. Scaled join queries are served like unscaled ones (the block
// draws its query's scale columns with drawScaledRows). Results align
// positionally with reqs and are bit-identical to EstimateBatchCtx (any
// worker count) with the same options — including adaptive-budget early
// stops — because both column loops consume identical per-(query, chunk)
// RNG streams and the driver checks TargetRelStdErr at identical boundaries.
//
// A goroutine walks each query's waves back to back before it picks up the
// next query, and a query's ServeOptions.Deadline counts from that pickup,
// as on EstimateBatchCtx. Deadlines and cancellation, of ctx and of each
// request's own Ctx, are honored before each block; affected queries degrade
// exactly as on EstimateBatchCtx (timing-dependent, so degraded budgets —
// unlike full-budget and target-stopped results — are not bit-reproducible).
//
// opts.Workers (GOMAXPROCS when 0, rejected with ErrInvalidWorkers when
// negative) bounds the goroutines pulling queries off the batch, each on a
// pooled model replica; budget left over when the batch holds fewer queries
// than Workers fans the tall GEMMs of each block over row ranges. The model's
// kernels add no goroutines of their own, so a call keeps at most Workers
// cores busy. Both splits are bit-identical to the single-threaded walk, so
// the worker count is purely a throughput knob. Models served behind a mutex
// (no Forkable) always run on one goroutine, and models that don't implement
// BlockModel (through their serving forks) walk every chunk through CondBatch.
func (e *Estimator) EstimateFused(ctx context.Context, reqs []Request, opts ServeOptions) []Result {
	return e.serveBatch(ctx, reqs, opts, true)
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
// walkChunk makes per column. Rows are drawn in ascending order, so a chunk
// drawn one tile at a time consumes its stream exactly as walkChunk does.
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
// stream, so the block's draws are the ones walkChunk makes chunk by chunk.
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
	// One RNG per chunk, re-seeded in place exactly like walkChunk's chunk
	// stream. (Seed on the default source reinitializes the generator
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
	// matches walkChunk's, one chunk per step.
	for r0 := 0; r0 < n; r0 += anytimeChunk {
		fq.add(weights[r0:min(r0+anytimeChunk, n)])
	}
	e.obs.fusedBlocks.Inc()
	return nil
}
