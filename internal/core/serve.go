package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/query"
)

// siteServeQuery is the chaos fault point on the per-query model path. It
// sits inside the shared classifier's recover scope, so an injected panic
// here exercises the same containment as a real model bug.
var siteServeQuery = faultinject.Site("core.serve.query")

// Source tags where a served estimate came from, so operators can audit
// degraded operation instead of discovering it in a quality regression.
type Source int

const (
	// SourceModel: the full-budget model estimate (enumeration or all S
	// progressive-sampling paths).
	SourceModel Source = iota
	// SourceDegraded: the model answered, but the per-query deadline cut the
	// progressive-sample budget short — an anytime Monte Carlo estimate over
	// the completed paths, with a correspondingly wider standard error.
	SourceDegraded
	// SourceFallback: the model failed (panic, non-finite estimate, expired
	// deadline before any paths completed, cancelled context) and the
	// configured fallback estimator answered instead.
	SourceFallback
	// SourceFailed: the model failed and no fallback was available (or the
	// fallback itself failed); Sel is zero and Err explains why.
	SourceFailed
)

// String implements fmt.Stringer for result provenance tags.
func (s Source) String() string {
	switch s {
	case SourceModel:
		return "model"
	case SourceDegraded:
		return "degraded"
	case SourceFallback:
		return "fallback"
	case SourceFailed:
		return "failed"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// StopReason records why a sampling query stopped where it did, so degraded
// and early-stopped answers are distinguishable from full-budget ones in
// Results and query traces.
type StopReason int

const (
	// StopNone: the full sample budget ran (or the query never sampled —
	// enumeration, empty region, failure before sampling).
	StopNone StopReason = iota
	// StopTargetStdErr: the adaptive budget retired the query early because
	// its relative standard error reached ServeOptions.TargetRelStdErr.
	StopTargetStdErr
	// StopDeadline: the per-query deadline expired mid-walk; the estimate
	// covers only the completed chunks.
	StopDeadline
	// StopCancel: the context was cancelled mid-walk.
	StopCancel
	// StopShed: admission control rejected the query before sampling (see
	// the request coalescer's queue-depth shedding).
	StopShed
)

// String implements fmt.Stringer; the empty string for StopNone keeps it out
// of JSON traces via omitempty.
func (s StopReason) String() string {
	switch s {
	case StopNone:
		return ""
	case StopTargetStdErr:
		return "target_stderr"
	case StopDeadline:
		return "deadline"
	case StopCancel:
		return "cancel"
	case StopShed:
		return "shed"
	}
	return fmt.Sprintf("StopReason(%d)", int(s))
}

// Result is one served estimate with provenance.
type Result struct {
	// Sel is the estimated selectivity in [0, 1].
	Sel float64
	// StdErr is the Monte Carlo standard error of Sel (0 after enumeration,
	// which is exact with respect to the model, and for fallback results).
	StdErr float64
	// Source tags the estimate's provenance.
	Source Source
	// Samples is the number of progressive-sampling paths that contributed
	// (0 when enumeration answered, or for fallback/failed results).
	Samples int
	// Stop records why sampling stopped short of the full budget (StopNone
	// for full-budget, enumeration, and empty-region results).
	Stop StopReason
	// Err records why the model path failed. It is non-nil for SourceFailed
	// and preserved alongside SourceFallback results so callers can log the
	// original failure.
	Err error
	// ModelVersion is the lifecycle version id of the model that served (or
	// attempted) this query — provenance for hot-swapped serving, 0 when
	// versioning is not in use. Fallback results keep the version of the
	// model that failed.
	ModelVersion uint64
}

// ErrBudgetExhausted reports that a query's deadline expired before a single
// progressive-sampling chunk completed, so not even a degraded model
// estimate exists.
var ErrBudgetExhausted = errors.New("core: deadline expired before any sample paths completed")

// ErrNonFinite reports that the model produced a non-finite density
// estimate (NaN weights from a poisoned model, for example).
var ErrNonFinite = errors.New("core: model produced a non-finite estimate")

// ErrPanicked reports that the model path panicked and the panic was
// contained to its query. Check with errors.Is; the wrapped message carries
// the query index and panic value. Trace records flag these queries with
// Recovered, and naru_query_panics_recovered_total counts them.
var ErrPanicked = errors.New("core: query panicked")

// ErrInvalidWorkers reports a negative ServeOptions.Workers. Batch entry
// points reject the whole batch with it (every Result carries SourceFailed
// and this error) instead of silently clamping a caller bug to a default.
var ErrInvalidWorkers = errors.New("core: ServeOptions.Workers must be >= 0")

// ServeOptions configures fault-tolerant batch serving.
type ServeOptions struct {
	// Workers caps how many queries walk at once (GOMAXPROCS when 0): on
	// both batch entry points it bounds the goroutines pulling queries off
	// the batch, one pooled model replica each, and a query walks on one of
	// them. A MADE model's sampling kernels run on those goroutines and
	// never start their own, so Workers = 1 serves it on one core. Results
	// are bit-identical at every worker count. Negative values are rejected
	// with ErrInvalidWorkers rather than clamped.
	Workers int

	// Deadline is the per-query wall-clock budget (0 means none), measured
	// on both batch entry points from the moment a worker picks the query
	// up, so time a batch spends on earlier queries never counts against a
	// later one. An expiring deadline does not abort the query: the
	// progressive sampler stops before its next chunk (or fused block) and
	// returns the anytime estimate over the completed paths, tagged
	// SourceDegraded. A context deadline composes with it — whichever is
	// sooner wins.
	Deadline time.Duration

	// TargetRelStdErr, when positive, enables adaptive per-query sample
	// budgets: a sampling query whose relative standard error
	// (StdErr / estimate) has reached the target retires early instead of
	// running its full budget. The check runs at fixed wave boundaries
	// (after 2 and after 6 completed chunks — see anytimeChunk), where the
	// fused walk's admission waves end, so the early-stop decision and the
	// resulting estimate are bit-identical across serving entry points.
	// Early-stopped results keep Source == SourceModel and carry
	// Stop == StopTargetStdErr with Samples showing the spent budget.
	TargetRelStdErr float64

	// Fallback, when non-nil, answers queries whose model path failed
	// (panic, cancellation, exhausted budget, non-finite estimate). The
	// cheap baselines of internal/estimator satisfy this signature via
	// their EstimateRegion method.
	Fallback func(reg *query.Region) float64

	// BeforeQuery, when non-nil, runs inside the worker's recover scope just
	// before query i is served. It exists for fault injection (scheduled
	// panics, mid-batch cancellation) and lightweight instrumentation.
	BeforeQuery func(i int)
}

// anytimeChunk is the progressive-sampling granularity of the serving path:
// paths run in independently seeded chunks of this many, and deadlines are
// checked at chunk boundaries. Chunk results depend only on (query index,
// chunk index), so a query that completes its full budget returns the same
// value no matter how many workers served the batch or how slowly the clock
// ran — the determinism the disruption tests pin down.
const anytimeChunk = 128

// Request is one query for the serving walks: its compiled region and, for a
// query over a join model, the scale columns its walk downscales by (nil for
// a single-table query; see ScaleCol). Scale columns must be unrestricted in
// the region: a restricted, out of range or wrongly sized scale column fails
// the query with an Err naming the column.
//
// Ctx, when non-nil, is the query's own context, honoured beside the call's:
// the walks check both (and the earlier of their deadlines) before every
// chunk or block, so a cancelled caller's query stops at the next one
// instead of spending the rest of its budget. A nil Ctx leaves the call's
// context in charge alone.
type Request struct {
	Region *query.Region
	Scales []ScaleCol
	Ctx    context.Context
}

// Requests wraps regions as unscaled requests.
func Requests(regions []*query.Region) []Request {
	reqs := make([]Request, len(regions))
	for i, reg := range regions {
		reqs[i].Region = reg
	}
	return reqs
}

// EstimateBatchCtx serves a whole workload with per-query fault containment:
// each query runs under the context and per-query deadline, a panicking
// query yields a per-query error (and fallback) rather than a crashed batch,
// and deadline pressure degrades the sample budget instead of aborting. The
// result slice aligns positionally with reqs and always has an entry for
// every query. Queries that complete their full model budget return values
// that are bit-identical to a sequential (Workers: 1) serve of the same
// batch on a fresh estimator. It is the reference walk: a sampling query
// walks its chunks one block each through the model's CondBatch (condBlock),
// and EstimateFused is the same call on the model's own block walk.
func (e *Estimator) EstimateBatchCtx(ctx context.Context, reqs []Request, opts ServeOptions) []Result {
	return e.serveBatch(ctx, reqs, opts, false)
}

// serveBatch is the one scheduler under both batch entry points. Up to
// opts.Workers goroutines pull queries off the batch in index order; each
// holds one pooled scratch (a model replica and its block buffers) and
// classifies, walks and routes its queries one at a time (serveOne), on the
// replica's own block walk when fused is set and the replica is a
// BlockModel. One goroutine serves on the caller's. Results never depend on
// the schedule: a query's randomness is keyed by its global index and chunk
// index alone.
func (e *Estimator) serveBatch(ctx context.Context, reqs []Request, opts ServeOptions, fused bool) []Result {
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
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if !e.forkable {
		// Non-forkable models serialize on the estimator mutex: a second
		// goroutine would only wait for the first.
		workers = 1
	}
	base := e.nextQuery.Add(uint64(len(reqs))) - uint64(len(reqs))
	goroutines := min(workers, len(reqs))
	if fused {
		e.obs.fusedWorkers.Set(float64(goroutines))
	}
	var next atomic.Int64
	run := func() {
		sc := e.acquire()
		defer e.release(sc)
		var bm BlockModel
		if fused {
			bm, _ = sc.model.(BlockModel)
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= len(reqs) {
				return
			}
			out[i] = e.serveOne(ctx, sc, bm, reqs[i], base+uint64(i), i, &opts)
		}
	}
	if goroutines == 1 {
		run()
		return out
	}
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	return out
}

// serveOne answers query i (global index q): the shared classifier, the
// per-query driver for a sampling query, then routeFallback. Its deadline
// counts from here, when a worker picks the query up. A panic may leave the
// replica's sampling state mid-walk, but the next walk's BeginSampling
// resets it.
func (e *Estimator) serveOne(ctx context.Context, sc *scratch, bm BlockModel, req Request, q uint64, i int, opts *ServeOptions) Result {
	start := time.Now()
	sq, res := e.classify(ctx, sc, req, q, i, opts, start)
	if sq != nil {
		res = e.walkQuery(ctx, sc, bm, sq, opts.TargetRelStdErr)
	}
	return e.routeFallback(res, req.Region, opts, time.Since(start))
}

// queryDeadline composes opts.Deadline, counted from start, with the
// deadlines of the call's context and the request's own (rctx, may be nil):
// whichever is soonest wins (zero when none is set).
func queryDeadline(ctx, rctx context.Context, opts *ServeOptions, start time.Time) time.Time {
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = start.Add(opts.Deadline)
	}
	for _, c := range [2]context.Context{ctx, rctx} {
		if c == nil {
			continue
		}
		if dl, ok := c.Deadline(); ok && (deadline.IsZero() || dl.Before(deadline)) {
			deadline = dl
		}
	}
	return deadline
}

// routeFallback turns a query's raw result into its final answer — a failed
// query goes to the fallback when one is set, and the model version is
// stamped — and records the answer with the observer. Every query either
// walk serves passes through it exactly once.
func (e *Estimator) routeFallback(res Result, reg *query.Region, opts *ServeOptions, elapsed time.Duration) Result {
	if res.Err != nil && opts.Fallback != nil {
		if v, ferr := safeFallback(opts.Fallback, reg); ferr == nil {
			res = Result{Sel: clampProb(v), Source: SourceFallback, Err: res.Err, Stop: res.Stop}
		} else {
			res.Source = SourceFailed
			res.Err = errors.Join(res.Err, ferr)
		}
	}
	res.ModelVersion = e.version.Load()
	if e.obs.reg != nil {
		e.observeServed(&res, reg, opts.Deadline, elapsed)
	}
	return res
}

// sampleQuery is one sampling query's walk state, shared by every block of
// the per-query driver: the region with its per-position valid-code lists
// and scale columns, the query's global index, and the running sums its
// chunks accumulate into.
type sampleQuery struct {
	i     int // position in the batch
	q     uint64
	reg   *query.Region
	last  int         // last restricted (or scale) model position
	valid [][]int32   // per-position valid-code lists (the scratch's)
	scale [][]float64 // per-position inverse fanouts; nil without scale columns

	ctx      context.Context // the request's own context; nil without one
	deadline time.Time       // see queryDeadline; zero without one

	sum, sumsq   float64
	done, chunks int
}

// scaleAt returns the inverse fanouts of model position pos, or nil when pos
// is not a scale column.
func (sq *sampleQuery) scaleAt(pos int) []float64 {
	if sq.scale == nil {
		return nil
	}
	return sq.scale[pos]
}

// interrupted reports why sq must stop before its next step: a
// cancelled call or request context (StopCancel with the context's error),
// or an expired deadline (StopDeadline with ErrBudgetExhausted). err is nil
// when the query may go on.
func (sq *sampleQuery) interrupted(ctx context.Context) (StopReason, error) {
	err := ctx.Err()
	if err == nil && sq.ctx != nil {
		err = sq.ctx.Err()
	}
	if err != nil {
		return StopCancel, err
	}
	if !sq.deadline.IsZero() && !time.Now().Before(sq.deadline) {
		return StopDeadline, ErrBudgetExhausted
	}
	return StopNone, nil
}

// stopResult is the answer of a query interrupted before its budget ran out:
// the anytime estimate over its completed chunks, or a failure carrying err
// when none completed.
func (e *Estimator) stopResult(sq *sampleQuery, stop StopReason, err error) Result {
	if sq.done == 0 {
		return Result{Source: SourceFailed, Err: err}
	}
	return e.finalizeSample(sq.sum, sq.sumsq, sq.done, stop)
}

// add folds one chunk's path weights into the running sums. Every block
// adds its chunks in chunk order, so every bit of sum and sumsq agrees
// across block heights.
func (sq *sampleQuery) add(weights []float64) {
	for _, w := range weights {
		sq.sum += w
		sq.sumsq += w * w
	}
	sq.done += len(weights)
	sq.chunks++
}

// classify runs the checks every serving entry point shares and dispatches
// query i (global index q): the BeforeQuery hook, the fault point, the
// call's and the request's contexts, the column count and the scale columns,
// then an empty region or one small enough to enumerate is answered inline
// (a query with scale columns always samples). Inline answers and failures
// come back as res with a nil sq; a sampling query comes back as its walk
// state, its deadline counted from start. Panics in the hook or enumeration
// are contained to the query, and a non-finite enumeration fails it with
// ErrNonFinite.
func (e *Estimator) classify(ctx context.Context, sc *scratch, req Request, q uint64, i int, opts *ServeOptions, start time.Time) (sq *sampleQuery, res Result) {
	reg := req.Region
	defer func() {
		if r := recover(); r != nil {
			sq, res = nil, Result{Source: SourceFailed, Err: fmt.Errorf("%w: query %d: %v", ErrPanicked, i, r)}
		}
	}()
	if opts.BeforeQuery != nil {
		opts.BeforeQuery(i)
	}
	if err := faultinject.Point(siteServeQuery); err != nil {
		return nil, Result{Source: SourceFailed, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return nil, Result{Source: SourceFailed, Err: err}
	}
	if req.Ctx != nil {
		if err := req.Ctx.Err(); err != nil {
			return nil, Result{Source: SourceFailed, Err: err}
		}
	}
	if err := e.checkWidth(reg); err != nil {
		return nil, Result{Source: SourceFailed, Err: err}
	}
	scale, err := e.scaleByPos(reg, req.Scales)
	if err != nil {
		return nil, Result{Source: SourceFailed, Err: err}
	}
	if reg.IsEmpty() {
		return nil, Result{Source: SourceModel}
	}
	if scale == nil && e.regionSizeRestricted(reg) <= e.EnumThreshold {
		// Enumeration is exact with respect to the model and its work is
		// bounded by EnumThreshold model evaluations, so it always runs to
		// completion.
		total := e.enumerate(sc, reg)
		if !isFinite(total) {
			return nil, Result{Source: SourceFailed, Err: ErrNonFinite}
		}
		return nil, Result{Sel: clampProb(total), Source: SourceModel}
	}
	// Trailing wildcards integrate to exactly 1 under the chain rule (their
	// conditionals sum out over the full domain), so the walk stops at the
	// last restricted or scale position — the cutoff enumeration uses. A
	// fully wildcarded region has last = -1: every path keeps weight 1.
	sq = &sampleQuery{i: i, q: q, reg: reg, last: -1, scale: scale,
		ctx: req.Ctx, deadline: queryDeadline(ctx, req.Ctx, opts, start)}
	for p := range reg.Cols {
		if !reg.Cols[p].IsAll() || sq.scaleAt(p) != nil {
			sq.last = p
		}
	}
	// A goroutine walks one query at a time, so the query can borrow the
	// scratch's per-column lists until its walk ends.
	sq.valid = e.materializeValid(sc, reg, sq.last+1)
	return sq, Result{}
}

// targetWaveBoundary reports whether the adaptive budget is consulted after
// this many completed chunks: where the first two admission waves end (see
// waveEnd). Checking at exactly these points — rather than every chunk —
// keeps early-stop decisions bit-identical between one-chunk and wave
// blocks, since both see the same accumulated sums at the same points.
func targetWaveBoundary(chunksDone int) bool {
	return chunksDone == 2 || chunksDone == 6
}

// waveEnd returns the completed-chunk count at which the admission wave
// holding chunk c ends — 2, then 6, then the whole budget of chunks — capped
// at chunks. A block step walks a query's chunks up to its wave's end.
func waveEnd(c, chunks int) int {
	switch {
	case c < 2:
		return min(2, chunks)
	case c < 6:
		return min(6, chunks)
	}
	return chunks
}

// meanStdErr turns running sums of the per-path weights into the Monte
// Carlo mean and standard error.
func meanStdErr(sum, sumsq float64, done int) (mean, stderr float64) {
	mean = sum / float64(done)
	if done > 1 {
		if variance := (sumsq - sum*sum/float64(done)) / float64(done-1); variance > 0 {
			stderr = math.Sqrt(variance / float64(done))
		}
	}
	return mean, stderr
}

// targetMet reports whether the relative standard error has reached the
// adaptive-budget target. An all-zero accumulation (mean 0, stderr 0) counts
// as met: more chunks of zeros cannot move the estimate.
func targetMet(sum, sumsq float64, done int, target float64) bool {
	mean, stderr := meanStdErr(sum, sumsq, done)
	return isFinite(mean) && stderr <= target*mean
}

// finalizeSample turns accumulated chunk sums into a sampling Result.
// Deadline and cancellation stops are SourceDegraded (the budget was cut
// short of the query's accuracy contract); an adaptive-budget stop keeps
// SourceModel — it met the requested accuracy, just cheaper.
func (e *Estimator) finalizeSample(sum, sumsq float64, done int, stop StopReason) Result {
	mean, stderr := meanStdErr(sum, sumsq, done)
	if !isFinite(mean) {
		return Result{Source: SourceFailed, Err: ErrNonFinite}
	}
	src := SourceModel
	if done < e.samples && stop != StopTargetStdErr {
		src = SourceDegraded
	}
	return Result{Sel: clampProb(mean), StdErr: stderr, Source: src, Samples: done, Stop: stop}
}

// safeFallback runs the fallback estimator with its own panic isolation: a
// buggy fallback degrades to SourceFailed instead of taking down the batch.
func safeFallback(fb func(*query.Region) float64, reg *query.Region) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: fallback panicked: %v", r)
		}
	}()
	v = fb(reg)
	if !isFinite(v) {
		return 0, fmt.Errorf("core: fallback produced non-finite estimate %v", v)
	}
	return v, nil
}
