package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/faultinject"
)

// siteFusedWalk is the chaos fault point inside a model's own block walk.
// It sits under walkBlock's recover, so an injected panic or error exercises
// the containment path: the block's query restarts on CondBatch blocks with
// a bit-identical answer. CondBatch blocks do not reach it.
var siteFusedWalk = faultinject.Site("core.fused.walk")

// This file implements the column loop of the per-query driver (walkQuery),
// the one place Algorithm 1 walks: the unit of model work is a *sample
// block*, some of one query's chunks stacked into one tall batch. On the
// fused entry over a model with its own block walk (BlockModel), a block is
// the chunks of one admission wave, flowing through the trunk and head GEMMs
// together. Every other walk — the reference entries EstimateBatchCtx and
// EstimateRegion, models without a block walk, and the restart after a block
// panic — walks one chunk per block through condBlock, an adapter over the
// model's own CondBatch. A block holds one query, so every row walks the same
// columns and draws against the same valid lists.
//
// Determinism is the load-bearing wall: each query's chunk k draws from the
// stream seeded by mixSeed(seedFor(q), k) however it is blocked, and the
// model's block decode is row-independent and equal to its CondBatch, so a
// query's estimate is bit-identical however tall its blocks were, or whether
// they ran on the model's block walk at all.
//
// Parallelism layers on top of that invariant without touching it: the batch
// scheduler (serveBatch) runs up to Workers goroutines, each pulling whole
// queries off the batch and walking them on its own pooled model replica and
// block buffers. A query's chunks all run on one goroutine and accumulate in
// chunk order, so the goroutine count never changes a single bit of any
// result.
//
// Within a block, rows that have drawn the same codes so far share the next
// column's conditional, so the walk decodes it once per *prefix group* (see
// prefixGroups): only each group's first live row reaches the model, and
// every row draws from its group's cumulative table. A block starts as one
// group, so its first decoded column costs one decoded row.
//
// Queries are all the parallelism a walk has: the model's kernels run on the
// goroutine that calls them (internal/made's block walk never fans out), so
// Workers = 1 walks on one core and a query always walks on one. The walk
// decodes and draws in decodeTileRows tiles so each column's logits and
// probabilities stay in L2.

// condBlock is the block walk of a model without one of its own, or whose
// own walk the caller does not take: a BlockModel over the model's CondBatch,
// built once per pooled scratch and walked one chunk per block. AdvanceBlock
// runs CondBatch over the block into the scratch's one-chunk probability
// rows, and DecodeBlock copies out the rows the walk asks for, so a walk on
// it makes exactly the model calls a chunk-at-a-time CondBatch walk makes.
type condBlock struct {
	Model
	sc      *scratch
	domains []int
}

// BeginSampling starts a walk over n rows, at most one chunk.
func (c *condBlock) BeginSampling(n int) {
	if sm, ok := c.Model.(SequentialModel); ok {
		sm.BeginSampling(n)
	}
}

// AdvanceBlock computes the conditionals of column col for all n rows.
func (c *condBlock) AdvanceBlock(codes []int32, n, col int) {
	c.Model.CondBatch(codes, n, col, c.sc.probs[:n])
}

// DecodeBlock copies the conditionals AdvanceBlock computed for the rows
// whose out entry is non-nil.
func (c *condBlock) DecodeBlock(col, r0, r1 int, out [][]float64) {
	d := c.domains[col]
	for i, o := range out[:r1-r0] {
		if o != nil {
			copy(o[:d], c.sc.probs[r0+i][:d])
		}
	}
}

// maxFusedRows caps the height of one fused block. A query's wave of chunks
// is one block unless it holds more rows than this (only the last wave of a
// budget above 22 chunks does); it is then walked as several blocks.
const maxFusedRows = 2048

// maxFusedChunks is maxFusedRows in whole chunks.
const maxFusedChunks = maxFusedRows / anytimeChunk

// fusedState holds one block walk's tall buffers. Each pooled scratch holds
// one, so concurrent calls (serving goroutines within one call, overlapping
// calls) don't reallocate them per call.
type fusedState struct {
	codes   []int32
	weights []float64

	// rngs persists one RNG per chunk of a block; walkBlock re-seeds them in
	// place (Seed reinitializes the generator exactly as a fresh NewSource
	// would), so the steady-state walk allocates no generator state.
	rngs []*rand.Rand

	// tileProbs is a decodeTileRows-high pool of probability rows. Every
	// tile of a tall block decodes into the same small set of rows, so the
	// table build and the draw re-read rows still in L2.
	tileProbs [][]float64

	// view is the out argument of DecodeBlock, indexed by absolute block
	// row: a decoded group's first row points at its probability row, every
	// other row is nil, so the model skips it.
	view [][]float64

	groups prefixGroups
}

func newFusedState(nc, maxDom int) *fusedState {
	st := &fusedState{
		codes:     make([]int32, maxFusedRows*nc),
		weights:   make([]float64, maxFusedRows),
		tileProbs: make([][]float64, decodeTileRows),
		view:      make([][]float64, maxFusedRows),
		groups:    newPrefixGroups(maxDom),
	}
	for i := range st.tileProbs {
		st.tileProbs[i] = make([]float64, maxDom)
	}
	return st
}

// prefixGroups partitions a block's live rows by the codes they have drawn
// so far. Every row of a group holds the same codes at every column the walk
// has drawn, so the model's trunk state — and with it the next column's
// conditional — is bit-identical across the group: the walk decodes it for
// the group's first live row only and lets every member draw from one
// cumulative table. A row's group at the next column is its group at this
// one plus the code it drew here (split). A dead row (weight 0 or NaN)
// leaves its group for good: it draws nothing more and is never decoded.
type prefixGroups struct {
	of    []int32 // row → group; -1 for a dead row
	size  []int32 // group → live rows
	first []int32 // group → its first live row, the one the model decodes
	reps  []int32 // every group's first row, ascending
	multi int     // groups of more than one row

	// tab and mass hold each group's draw table and mass at the column
	// being drawn. A group of one row builds its table in place over its
	// decoded row (tile scratch); a larger group's table goes to arena,
	// where it stays until the column is drawn, since later tiles hold more
	// of its rows. scan marks a one-row group on a wildcard column, whose
	// tab is its decoded row and which draws by scanDraw.
	tab   [][]float64
	mass  []float64
	scan  []bool
	arena []float64
	used  int

	// split's scratch: live rows ordered by group, the counting sort's
	// offsets, and per code the stamp of the group being split with the id
	// its rows that drew that code get.
	order  []int32
	ends   []int32
	stamp  []uint32
	id     []int32
	stampv uint32
}

func newPrefixGroups(maxDom int) prefixGroups {
	return prefixGroups{
		of:    make([]int32, maxFusedRows),
		size:  make([]int32, maxFusedRows),
		first: make([]int32, maxFusedRows),
		reps:  make([]int32, 0, maxFusedRows),
		tab:   make([][]float64, maxFusedRows),
		mass:  make([]float64, maxFusedRows),
		scan:  make([]bool, maxFusedRows),
		order: make([]int32, maxFusedRows),
		ends:  make([]int32, maxFusedRows),
		stamp: make([]uint32, maxDom),
		id:    make([]int32, maxDom),
	}
}

// reset starts a block of n rows, all live and in one group: every row
// enters the walk in the same zero-input state.
func (g *prefixGroups) reset(n int) {
	for r := range g.of[:n] {
		g.of[r] = 0
	}
	g.size[0], g.first[0] = int32(n), 0
	g.reps = append(g.reps[:0], 0)
	g.multi = 0
	if n > 1 {
		g.multi = 1
	}
}

// startColumn readies the table storage of a column with width valid codes.
// The arena grows at least twofold, so a walk's first queries reach its
// steady size in a few allocations.
func (g *prefixGroups) startColumn(width int) {
	need := g.multi * width
	if cap(g.arena) < need {
		g.arena = make([]float64, max(need, 2*cap(g.arena)))
	}
	g.arena = g.arena[:need]
	g.used = 0
}

// setTable readies group k's draw from its decoded row p: a table and mass
// (buildTable; a wildcard column's mass is 1), or, for a one-row group on a
// wildcard column, p itself for scanDraw.
func (g *prefixGroups) setTable(k int32, p []float64, vs []int32, inv []float64, wildcard bool) {
	tab := p[:len(vs)]
	g.scan[k] = wildcard && g.size[k] == 1
	if g.scan[k] {
		g.tab[k] = tab
		return
	}
	if g.size[k] > 1 {
		tab = g.arena[g.used : g.used+len(vs)]
		g.used += len(vs)
	}
	mass := buildTable(tab, p, vs, inv)
	if wildcard {
		mass = 1
	}
	g.tab[k], g.mass[k] = tab, mass
}

// split moves the block's rows to their groups at the next decoded column
// once column col is drawn: rows still live are grouped by (group, code at
// col); rows that died at col leave. Groups are numbered in order of their
// parent group, then of their first row, and reps lists their first rows in
// ascending order. Once every group has one row, rows only leave.
func (g *prefixGroups) split(codes []int32, weights []float64, nc, col, n int) {
	of := g.of[:n]
	if g.multi == 0 {
		g.reps = g.reps[:0]
		for r := range of {
			if weights[r] > 0 {
				g.reps = append(g.reps, int32(r))
			} else {
				of[r] = -1
			}
		}
		return
	}
	// Counting sort of the live rows by group: ends[k] ends up one past
	// group k's last entry in order.
	ngroups := len(g.reps)
	ends := g.ends[:ngroups]
	clear(ends)
	for r, k := range of {
		if weights[r] > 0 {
			ends[k]++
		} else {
			of[r] = -1
		}
	}
	at := int32(0)
	for k, c := range ends {
		ends[k] = at
		at += c
	}
	for r, k := range of {
		if k >= 0 {
			g.order[ends[k]] = int32(r)
			ends[k]++
		}
	}
	next, multi, from := int32(0), 0, int32(0)
	for _, to := range ends {
		g.stampv++
		if g.stampv == 0 {
			clear(g.stamp)
			g.stampv = 1
		}
		for _, r := range g.order[from:to] {
			code := codes[int(r)*nc+col]
			if g.stamp[code] != g.stampv {
				g.stamp[code], g.id[code] = g.stampv, next
				g.size[next], g.first[next] = 0, r
				next++
			}
			k := g.id[code]
			of[r] = k
			if g.size[k]++; g.size[k] == 2 {
				multi++
			}
		}
		from = to
	}
	g.multi = multi
	g.reps = g.reps[:0]
	for r, k := range of {
		if k >= 0 && g.first[k] == int32(r) {
			g.reps = append(g.reps, int32(r))
		}
	}
}

// EstimateFused serves the batch exactly like EstimateBatchCtx — the same
// scheduler, classifier, per-query driver and column loop (serveBatch,
// walkQuery, walkBlock) — except that a sampling query's chunks of one
// admission wave (2 chunks, then 4, then the rest) run as one tall block on
// the model's own block walk instead of one CondBatch block per chunk. It is
// the serving entry point: the facade's query methods, the admission gate
// and the join estimator all walk through it. Scaled join queries are served
// like unscaled ones (the block draws its query's scale columns from tables
// of the tilted terms). Results align positionally with reqs and are
// bit-identical to EstimateBatchCtx (any worker count) with the same options
// — including adaptive-budget early stops — because both consume identical
// per-(query, chunk) RNG streams and the driver checks TargetRelStdErr at
// identical boundaries.
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
// pooled model replica; a query walks on one goroutine, so a call of fewer
// queries than Workers leaves the rest idle. The model's kernels add no
// goroutines of their own, so a call keeps at most Workers cores busy.
// Results are bit-identical at every worker count, so the worker count is
// purely a throughput knob. Models served behind a mutex (no Forkable)
// always run on one goroutine, and models that don't implement BlockModel
// (through their serving forks) walk one CondBatch block per chunk.
func (e *Estimator) EstimateFused(ctx context.Context, reqs []Request, opts ServeOptions) []Result {
	return e.serveBatch(ctx, reqs, opts, true)
}

// decodeTileRows is the number of rows one decode+draw pass of the walk
// decodes. Every tile reuses the same pooled probability rows, so the table
// build re-reads what the decode just wrote while it is still in L2. The
// widest column sets the height: a 32-row tile of DMV's 2101-code valid_date
// holds 32 × 2101 × (4 + 8) B ≈ 0.8 MB of float32 logits and float64
// probabilities, which fits a 2 MB L2 beside the 0.54 MB packed decode
// weights; a 128-row chunk would hold 3.2 MB and spill. On the DMV benchmark
// model 32 rows measured best: 16- and 64-row tiles cost 2–3% more CPU per
// query, 256-row tiles 12% more.
const decodeTileRows = 32

// decodeDraw decodes column col for the first row of every prefix group of
// the block and draws the codes of all n rows. It decodes the groups' first
// rows decodeTileRows at a time and, after each tile, draws every row up to
// the next tile's first row: each of those rows belongs to a group whose
// first row is decoded by then. Tiling is invisible to results: decode is
// row-independent given the advanced trunk state, and drawBlock draws a
// chunk in pieces exactly as it draws it whole.
func (e *Estimator) decodeDraw(bm BlockModel, st *fusedState, fq *sampleQuery, codes []int32, weights []float64, n, col int) {
	g := &st.groups
	vs, inv := fq.valid[col], fq.scaleAt(col)
	wildcard := inv == nil && fq.reg.Cols[col].IsAll()
	g.startColumn(len(vs))
	drawn := 0
	for i0 := 0; i0 < len(g.reps); i0 += decodeTileRows {
		tile := g.reps[i0:min(i0+decodeTileRows, len(g.reps))]
		a, b := int(tile[0]), int(tile[len(tile)-1])+1
		clear(st.view[a:b])
		for i, r := range tile {
			st.view[r] = st.tileProbs[i]
		}
		bm.DecodeBlock(col, a, b, st.view[a:b])
		for i, r := range tile {
			g.setTable(g.of[r], st.tileProbs[i], vs, inv, wildcard)
		}
		end := n
		if next := i0 + len(tile); next < len(g.reps) {
			end = int(g.reps[next])
		}
		e.drawBlock(st, fq, codes, col, weights, drawn, end)
		drawn = end
	}
	// A block with no live row left decodes nothing; its rows still take
	// their dead-path codes.
	e.drawBlock(st, fq, codes, col, weights, drawn, n)
}

// drawBlock runs the draw step at model position col over rows [r0, r1) of
// the block, each chunk's rows from that chunk's stream and each live row
// from its group's table. Rows are drawn in ascending order, so a chunk
// drawn one tile at a time consumes its stream exactly as it would drawn
// whole, in a block of any height.
func (e *Estimator) drawBlock(st *fusedState, fq *sampleQuery, codes []int32, col int, weights []float64, r0, r1 int) {
	nc := len(fq.reg.Cols)
	vs := fq.valid[col]
	g := &st.groups
	for r0 < r1 {
		j := r0 / anytimeChunk
		end := min(r1, (j+1)*anytimeChunk)
		rng := st.rngs[j]
		for r := r0; r < end; r++ {
			if !(weights[r] > 0) {
				codes[r*nc+col] = vs[0]
				continue
			}
			if k := g.of[r]; g.scan[k] {
				codes[r*nc+col] = scanDraw(rng, g.tab[k], vs)
			} else {
				codes[r*nc+col] = drawRow(rng, g.tab[k], g.mass[k], vs, &weights[r])
			}
		}
		r0 = end
	}
}

// walkBlock runs chunks [c0, c1) of one query as a single tall block: chunk
// c0+j fills rows [j·anytimeChunk, (j+1)·anytimeChunk) and draws from its own
// stream, so the block's draws are the ones the chunks would make walked one
// at a time. Every row walks every column from 0 to the query's last
// restricted (or scale) column, advancing, decoding and drawing each one —
// wildcards have mass 1 but still consume a draw. Each column reaches the
// model's decode for one row per prefix group (prefixGroups); column 0,
// where every row still shares the zero-input state, for one row in all.
// Returns a wrapped ErrPanicked if the model panicked (the replica's walk
// state is then poisoned until the next BeginSampling). The fault point and
// the naru_fused_* block counters see the model's own block walks only, not
// condBlock's.
//
// The walk performs no per-block heap allocations at any block height: RNGs,
// groups, tables and every tall buffer are pooled in st, the model's own
// scratch reuse (capacity-preserving BeginSampling, packed-weight caches,
// pooled view headers) covers the rest, and the model's kernels never fan
// out on their own, so no product pays a goroutine handoff
// (TestEstimateFusedWalkZeroAlloc pins this at exactly zero, on a small
// block and on a 2048-row block of a DMV-wide model).
func (e *Estimator) walkBlock(bm BlockModel, st *fusedState, fq *sampleQuery, c0, c1 int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: query %d: %v", ErrPanicked, fq.i, r)
		}
	}()
	_, viaCond := bm.(*condBlock)
	if !viaCond {
		if err := faultinject.Point(siteFusedWalk); err != nil {
			return err
		}
	}
	n := min(e.samples, c1*anytimeChunk) - c0*anytimeChunk
	nc := len(fq.reg.Cols)
	codes := st.codes[:n*nc]
	clear(codes)
	weights := st.weights[:n]
	for i := range weights {
		weights[i] = 1
	}
	// One RNG per chunk, re-seeded in place with the chunk's stream. (Seed
	// on the default source reinitializes the generator identically to a
	// fresh NewSource, without the allocation.)
	for len(st.rngs) < c1-c0 {
		st.rngs = append(st.rngs, rand.New(rand.NewSource(0)))
	}
	seed := e.seedFor(fq.q)
	for c := c0; c < c1; c++ {
		st.rngs[c-c0].Seed(mixSeed(seed, int64(c)))
	}

	bm.BeginSampling(n)
	st.groups.reset(n)
	decoded := 0
	for col := 0; col <= fq.last; col++ {
		if col > 0 {
			st.groups.split(codes, weights, nc, col-1, n)
		}
		bm.AdvanceBlock(codes, n, col)
		decoded += len(st.groups.reps)
		e.decodeDraw(bm, st, fq, codes, weights, n, col)
	}
	// Fold the chunks' weights back into their query in chunk order, so the
	// accumulation order — and therefore every bit of sum and sumsq — is the
	// same at every block height.
	for r0 := 0; r0 < n; r0 += anytimeChunk {
		fq.add(weights[r0:min(r0+anytimeChunk, n)])
	}
	if !viaCond {
		e.obs.fusedBlocks.Inc()
		e.obs.fusedRowsWalked.Add(uint64(n * (fq.last + 1)))
		e.obs.fusedRowsDecoded.Add(uint64(decoded))
	}
	return nil
}
