package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/query"
)

// Estimator is the queryable Naru estimator: a trained (or emulated)
// autoregressive model plus the two querying algorithms of §5 — exact
// enumeration for small regions and progressive sampling for everything else.
//
// The estimator is safe for concurrent use. Each query runs against a
// scratch bundle (model replica + sampling buffers + its own RNG); models
// implementing Forkable get a pool of replicas so queries proceed in
// parallel, others are served behind a mutex. Every query draws a global
// index from an atomic counter and seeds its RNG from (base seed, index), so
// results are bit-identical however queries are spread across goroutines: a
// batch call on a fresh estimator returns exactly what sequential
// EstimateRegion calls on a fresh estimator would.
type Estimator struct {
	model   Model
	samples int
	seed    int64

	// EnumThreshold is the query-region size (number of discrete points)
	// up to which exact enumeration is used instead of sampling.
	EnumThreshold float64

	// nextQuery numbers queries across all goroutines; the number seeds the
	// per-query RNG.
	nextQuery atomic.Uint64

	// version is the lifecycle model-version id stamped into every Result and
	// trace this estimator produces (0 when versioning is not in use). It is
	// set once at construction/installation time, before the estimator serves.
	version atomic.Uint64

	// obs holds pre-resolved metric handles (see SetObserver); the zero
	// value disables collection at the cost of one branch per query.
	obs estObs

	forkable bool
	pool     sync.Pool  // *scratch replicas, used when forkable
	mu       sync.Mutex // guards primary otherwise
	primary  *scratch
}

// scratch bundles everything one in-flight query needs: a model (the shared
// one, or a Forkable replica), the CondBatch block walk over it (cond), the
// block walk's tall buffers (st), one chunk's probability rows, and the
// per-column valid-code lists of the current query.
type scratch struct {
	model Model
	cond  *condBlock
	st    *fusedState
	lp    []float64
	probs [][]float64
	valid [][]int32 // per-column valid-code lists for the current query
}

// NewEstimator wraps a model with S progressive-sampling paths. Naru-1000,
// Naru-2000, etc. in the paper's tables are this estimator with S = 1000,
// 2000, ...
func NewEstimator(m Model, samples int, seed int64) *Estimator {
	if samples <= 0 {
		panic("core: non-positive sample count")
	}
	e := &Estimator{
		model:         m,
		samples:       samples,
		seed:          seed,
		EnumThreshold: 3000,
	}
	if f, ok := m.(Forkable); ok {
		// Validate the fork contract once, up front: a ForkModel whose result
		// does not implement Model fails construction instead of panicking on
		// the first pool miss mid-batch. The validation replica is not
		// wasted — it becomes the pool's first scratch (replicas and the
		// original are interchangeable at inference), so construction forks
		// exactly once and the pool grows lazily from there.
		fm, ok := f.ForkModel().(Model)
		if !ok {
			panic(fmt.Sprintf("core: %T.ForkModel result does not implement Model", m))
		}
		e.forkable = true
		e.pool.New = func() any { return e.newScratch(f.ForkModel().(Model)) }
		e.primary = e.newScratch(fm)
		e.pool.Put(e.primary)
		return e
	}
	e.primary = e.newScratch(m)
	return e
}

// SetVersion stamps the lifecycle model-version id this estimator serves;
// every Result and trace it produces afterwards carries the id. Versioned
// estimators are immutable bundles behind an atomic swap point, so this is
// called once before the estimator starts serving.
func (e *Estimator) SetVersion(v uint64) { e.version.Store(v) }

// Version returns the lifecycle model-version id (0 when versioning is not
// in use).
func (e *Estimator) Version() uint64 { return e.version.Load() }

// newScratch allocates the per-query buffers around a model instance, its
// probability rows sized for one CondBatch chunk: the CondBatch block walk
// walks at most anytimeChunk paths at a time. Enumeration grows probs and lp
// to its batches, and UniformRegionSample grows lp to its sample count.
func (e *Estimator) newScratch(m Model) *scratch {
	maxDom := 0
	for _, d := range m.DomainSizes() {
		if d > maxDom {
			maxDom = d
		}
	}
	probs := make([][]float64, min(e.samples, anytimeChunk))
	for i := range probs {
		probs[i] = make([]float64, maxDom)
	}
	sc := &scratch{model: m, st: newFusedState(m.NumCols(), maxDom), probs: probs}
	sc.cond = &condBlock{Model: m, sc: sc, domains: m.DomainSizes()}
	return sc
}

// acquire checks a scratch out for one query; release returns it.
func (e *Estimator) acquire() *scratch {
	if e.forkable {
		return e.pool.Get().(*scratch)
	}
	e.mu.Lock()
	return e.primary
}

func (e *Estimator) release(sc *scratch) {
	if e.forkable {
		e.pool.Put(sc)
		return
	}
	e.mu.Unlock()
}

// seedFor derives the RNG seed of query q from the base seed by a splitmix64
// round, so consecutive queries get well-separated streams and a query's
// randomness depends only on its global index.
func (e *Estimator) seedFor(q uint64) int64 {
	z := uint64(e.seed) + 0x9e3779b97f4a7c15*(q+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Name identifies the estimator in result tables (e.g. "Naru-2000").
func (e *Estimator) Name() string { return fmt.Sprintf("Naru-%d", e.samples) }

// Samples returns the number of progressive sample paths S.
func (e *Estimator) Samples() int { return e.samples }

// SizeBytes is the model's storage footprint.
func (e *Estimator) SizeBytes() int64 { return e.model.SizeBytes() }

// EstimateRegion returns the estimated selectivity (a fraction in [0, 1]) of
// the compiled query region, dispatching between enumeration and progressive
// sampling exactly as §5 prescribes. It is a one-query EstimateBatchCtx at
// one worker, with no deadline or fallback: a region of the wrong width, or
// a model panic, panics on the caller's goroutine, and a query that fails
// otherwise (a non-finite estimate, an injected fault) estimates 0.
// EstimateBatchCtx reports those failures per query instead.
func (e *Estimator) EstimateRegion(reg *query.Region) float64 {
	if err := e.checkWidth(reg); err != nil {
		panic(err)
	}
	r := e.EstimateBatchCtx(context.Background(), []Request{{Region: reg}}, ServeOptions{Workers: 1})[0]
	if errors.Is(r.Err, ErrPanicked) {
		panic(r.Err)
	}
	return r.Sel
}

// checkWidth reports a region compiled for a different column count.
func (e *Estimator) checkWidth(reg *query.Region) error {
	if len(reg.Cols) != e.model.NumCols() {
		return fmt.Errorf("core: region over %d columns, model has %d", len(reg.Cols), e.model.NumCols())
	}
	return nil
}

// regionSizeRestricted is the number of model evaluations enumeration would
// need: the product of |Ri| over model positions up to the last restricted
// one — trailing wildcards integrate to exactly 1 under the chain rule (the
// product of conditionals over a full domain sums out), so enumeration may
// stop at the last restricted column in the model's order.
func (e *Estimator) regionSizeRestricted(reg *query.Region) float64 {
	last := -1
	for i := range reg.Cols {
		if !reg.Cols[i].IsAll() {
			last = i
		}
	}
	size := 1.0
	for i := 0; i <= last; i++ {
		size *= float64(reg.Cols[i].Count)
	}
	return size
}

// materializeValid fills sc.valid[i] with the sorted valid codes of model
// position i for i < upTo, reusing the backing arrays across queries. The
// per-column lists let the sampling loops touch exactly Count entries instead
// of re-scanning the Valid bitmap for every sample path.
func (e *Estimator) materializeValid(sc *scratch, reg *query.Region, upTo int) [][]int32 {
	if cap(sc.valid) < upTo {
		sc.valid = append(sc.valid[:cap(sc.valid)], make([][]int32, upTo-cap(sc.valid))...)
	}
	sc.valid = sc.valid[:upTo]
	for i := 0; i < upTo; i++ {
		sc.valid[i] = appendValid(sc.valid[i][:0], &reg.Cols[i])
	}
	return sc.valid
}

// appendValid appends the valid codes of cr to dst in ascending order.
func appendValid(dst []int32, cr *query.ColumnRange) []int32 {
	for c, ok := range cr.Valid {
		if ok {
			dst = append(dst, int32(c))
		}
	}
	return dst
}

// Enumerate sums model point densities over every discrete point of the
// query region (§5, "Enumeration"): exact with respect to the model. Columns
// after the last restricted one are wildcards and marginalize to 1, so the
// walk covers codes of columns [0, last] and sums chain-rule conditionals.
// A non-finite sum reads as 0; the serving walks fail such a query with
// ErrNonFinite instead.
func (e *Estimator) Enumerate(reg *query.Region) float64 {
	sc := e.acquire()
	defer e.release(sc)
	return clampProb(e.enumerate(sc, reg))
}

// enumerate returns Enumerate's sum before clamping, NaN for a poisoned
// model.
func (e *Estimator) enumerate(sc *scratch, reg *query.Region) float64 {
	last := -1
	for i := range reg.Cols {
		if !reg.Cols[i].IsAll() {
			last = i
		}
	}
	if last == -1 {
		return 1 // no restrictions at all
	}
	valid := e.materializeValid(sc, reg, last+1)

	// Walk the cross product in batches; for each point, accumulate the
	// product of conditionals P̂(x_i | x_<i) for i ≤ last via one CondBatch
	// pass per column over the batch.
	n := sc.model.NumCols()
	total := 0.0
	points := make([]int32, 0, enumBatch*n)
	row := make([]int32, n) // reused: appended by value into points
	idx := make([]int, last+1)
	done := false
	for !done {
		points = points[:0]
		for len(points)/n < enumBatch && !done {
			for i := 0; i <= last; i++ {
				row[i] = valid[i][idx[i]]
			}
			points = append(points, row...)
			// Odometer increment.
			k := last
			for k >= 0 {
				idx[k]++
				if idx[k] < len(valid[k]) {
					break
				}
				idx[k] = 0
				k--
			}
			if k < 0 {
				done = true
			}
		}
		total += e.sumDensityPrefix(sc, points, len(points)/n, last)
	}
	return total
}

const enumBatch = 512

// sumDensityPrefix returns Σ over the batch of Π_{i≤last} P̂(x_i | x_<i).
func (e *Estimator) sumDensityPrefix(sc *scratch, codes []int32, n, last int) float64 {
	if n == 0 {
		return 0
	}
	if cap(sc.lp) < n {
		sc.lp = make([]float64, n)
	}
	lp := sc.lp[:n]
	for i := range lp {
		lp[i] = 0
	}
	if beg, ok := sc.model.(SequentialModel); ok {
		beg.BeginSampling(n)
	}
	if n > len(sc.probs) {
		// Grow once and keep: batches above one chunk recur every call.
		probs := make([][]float64, n)
		maxDom := 0
		for _, d := range sc.model.DomainSizes() {
			if d > maxDom {
				maxDom = d
			}
		}
		for i := range probs {
			probs[i] = make([]float64, maxDom)
		}
		sc.probs = probs
	}
	probs := sc.probs
	nc := sc.model.NumCols()
	for col := 0; col <= last; col++ {
		sc.model.CondBatch(codes, n, col, probs[:n])
		for r := 0; r < n; r++ {
			lp[r] += math.Log(probs[r][codes[r*nc+col]])
		}
	}
	var s float64
	for r := 0; r < n; r++ {
		s += math.Exp(lp[r])
	}
	return s
}

// walkQuery is the per-query driver of Algorithm 1, the one loop over a
// query's chunks under both batch entry points: the query's S sample paths
// run in independently seeded chunks of anytimeChunk, walked in blocks that
// advance all their paths one model position at a time (walkBlock). The
// model's conditional steers each path into the high-mass part of the query
// region; the product of the per-column masses P̂(X_i ∈ Ri | x_<i) is the
// unbiased density estimate (Theorem 1). Scale columns multiply in their
// expected inverse fanout instead (buildTable). A block walks every column
// from 0 to the query's last restricted or scale column and draws through
// wildcards, whose mass is 1.
//
// When bm, the model's own block walk, is set, a block is the query's chunks
// of one admission wave, split past maxFusedChunks; otherwise it is one
// chunk, walked through the model's CondBatch (sc.cond). Chunk k draws
// from the stream mixSeed(seedFor(q), k) and the chunks accumulate in chunk
// order either way, so a query's estimate is bit-identical across entry
// points and never depends on how its samples were scheduled. The query's
// contexts and deadline are checked before every block (an interrupted
// query returns the anytime estimate over the completed chunks) and the
// adaptive budget at the 2- and 6-chunk wave boundaries, where every block
// ends. A panic is contained to the query: a panic or injected fault in the
// model's own block walk restarts the query from chunk 0 on CondBatch blocks
// (same chunk streams, same answer), and a panic in a CondBatch block fails
// the query. The next BeginSampling resets the replica.
func (e *Estimator) walkQuery(ctx context.Context, sc *scratch, bm BlockModel, sq *sampleQuery, targetRel float64) Result {
	chunks := (e.samples + anytimeChunk - 1) / anytimeChunk
	for sq.done < e.samples {
		if stop, err := sq.interrupted(ctx); err != nil {
			return e.stopResult(sq, stop, err)
		}
		blk, c1 := bm, min(waveEnd(sq.chunks, chunks), sq.chunks+maxFusedChunks)
		if bm == nil {
			blk, c1 = sc.cond, sq.chunks+1
		}
		if err := e.walkBlock(blk, sc.st, sq, sq.chunks, c1); err != nil {
			if bm == nil {
				return Result{Source: SourceFailed, Err: err}
			}
			e.obs.fusedReserved.Inc()
			sq.sum, sq.sumsq, sq.done, sq.chunks = 0, 0, 0, 0
			bm = nil
			continue
		}
		if targetRel > 0 && sq.done < e.samples && targetWaveBoundary(sq.chunks) &&
			targetMet(sq.sum, sq.sumsq, sq.done, targetRel) {
			return e.finalizeSample(sq.sum, sq.sumsq, sq.done, StopTargetStdErr)
		}
	}
	return e.finalizeSample(sq.sum, sq.sumsq, sq.done, StopNone)
}

// buildTable writes the draw table of one decoded conditional p at a column
// whose valid codes are vs into tab (len(vs) entries) and returns the
// column's mass: Σ_j p[vs[j]] over the in-range codes, or Σ_v p[v]·inv[v]
// on a scale column (whose valid list is the whole domain). tab[j] is the
// running sum through vs[j], summed in exactly the order Algorithm 1's
// linear inverse-CDF scan sums it, so a binary search for the first entry
// that reaches u finds the scan's pick (see drawRow). The search needs a
// sorted table: after a negative term, or a NaN one (every running sum
// after it is NaN), each entry is raised to the largest running sum so far
// instead, NaN never counting, and the first entry to reach u is still the
// scan's. tab may alias p: entry j is written after p[vs[j]] is read, and
// every later read is at a higher index (vs ascends, vs[j] ≥ j).
func buildTable(tab, p []float64, vs []int32, inv []float64) float64 {
	var cum float64
	var signs uint64 // the OR of every term's bits: bit 63 is set by a negative term
	tab = tab[:len(vs)]
	if inv != nil {
		inv = inv[:len(tab)]
		for v := range tab {
			t := p[v] * inv[v]
			signs |= math.Float64bits(t)
			cum += t
			tab[v] = cum
		}
	} else {
		for j, v := range vs {
			t := p[v]
			signs |= math.Float64bits(t)
			cum += t
			tab[j] = cum
		}
	}
	if int64(signs) >= 0 && cum == cum {
		return cum
	}
	top := math.Inf(-1)
	for j, c := range tab {
		if c > top {
			top = c
		}
		tab[j] = top
	}
	return cum
}

// drawRow runs the mass/draw step of Algorithm 1 for one live path:
// multiply its weight *w by the column's mass — the in-range mass
// P̂(X_col ∈ R_col | x_<col), 1 on a wildcard, the expected inverse fanout
// on a scale column — and draw its next code from vs by inverse CDF over
// the table buildTable made. It consumes one uniform variate, scaled by the
// mass, and returns the first code whose running sum reaches it — exactly
// the code the linear scan over the re-normalized in-range slice picks
// (Alg. 1 lines 12-15) — falling back to the last valid code on numerical
// slack (a wildcard whose sum falls short of 1, or a NaN term before the
// pick).
//
// A path with no mass dies (weight 0) and draws nothing. A NaN mass — a
// poisoned model — leaves NaN in the weight instead, so the query's estimate
// is NaN and finalizeSample fails it with ErrNonFinite rather than answering
// 0. Either way the path keeps vs[0] so later columns' advances stay
// well-defined; its weight is final.
func drawRow(rng *rand.Rand, tab []float64, mass float64, vs []int32, w *float64) int32 {
	if !(mass > 0) {
		*w = max(mass, 0) // NaN stays NaN
		return vs[0]
	}
	*w *= mass
	u := rng.Float64() * mass
	lo, hi := 0, len(tab)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if tab[h] >= u {
			hi = h
		} else {
			lo = h + 1
		}
	}
	if lo == len(tab) {
		return vs[len(vs)-1]
	}
	return vs[lo]
}

// scanDraw draws a path's code at a wildcard column straight from its
// decoded row p, by the linear scan drawRow's search stands in for: the
// mass is 1, so the weight stays as it is and the uniform variate is used
// as drawn, and the scan stops at the pick (the last code when p sums short
// of 1). A row whose conditional no other row shares draws this way: a
// table would sum all of p, the scan only up to the pick.
func scanDraw(rng *rand.Rand, p []float64, vs []int32) int32 {
	u := rng.Float64()
	var cum float64
	for _, v := range vs {
		cum += p[v]
		if cum >= u {
			return v
		}
	}
	return vs[len(vs)-1]
}

// UniformRegionSample is the §5.1 "first attempt" baseline: draw points
// uniformly from the query region and average |R|·P̂(x)/|joint|... precisely,
// the naive Monte Carlo estimate |R|/S · Σ P̂(x^(i)). It collapses on skewed
// data and exists to reproduce that failure mode (Figure 3, left).
func (e *Estimator) UniformRegionSample(reg *query.Region, s int) float64 {
	if reg.IsEmpty() {
		return 0
	}
	q := e.nextQuery.Add(1) - 1
	sc := e.acquire()
	defer e.release(sc)
	rng := rand.New(rand.NewSource(e.seedFor(q)))
	n := sc.model.NumCols()
	if s > e.samples {
		s = e.samples
	}
	codes := make([]int32, s*n)
	valid := e.materializeValid(sc, reg, n)
	for r := 0; r < s; r++ {
		for i := 0; i < n; i++ {
			codes[r*n+i] = valid[i][rng.Intn(len(valid[i]))]
		}
	}
	if cap(sc.lp) < s {
		sc.lp = make([]float64, s)
	}
	lp := sc.lp[:s]
	sc.model.LogProbBatch(codes, s, lp)
	var sum float64
	for _, v := range lp {
		sum += math.Exp(v)
	}
	return clampProb(reg.Size() * sum / float64(s))
}

func clampProb(p float64) float64 {
	if p < 0 || math.IsNaN(p) {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
