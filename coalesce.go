package naru

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ErrShed tags a query rejected by the coalescer's admission control: the
// backlog exceeded CoalesceOptions.MaxQueue, so the query was answered by the
// 1D-statistics fallback (or failed, when none is configured) without ever
// reaching the model.
var ErrShed = errors.New("naru: backlog full, query shed")

// ErrCoalescerClosed is returned for queries submitted after Close.
var ErrCoalescerClosed = errors.New("naru: coalescer closed")

// CoalesceOptions tunes the request coalescer (Estimator.NewCoalescer).
type CoalesceOptions struct {
	// Window is the micro-batch window: the first query to arrive at an empty
	// queue waits at most this long for peers before dispatch (default 2ms).
	Window time.Duration
	// MaxBatch dispatches a batch immediately once this many queries are
	// queued, without waiting out the window (default 64).
	MaxBatch int
	// MaxInFlight caps concurrent fused dispatches; batches beyond the cap
	// queue for a slot (default 2).
	MaxInFlight int
	// MaxQueue is the admission-control threshold: once this many queries are
	// enqueued-but-not-yet-executing, new arrivals are shed to the fallback
	// (default 256).
	MaxQueue int
	// Serve configures each fused dispatch: target stderr, per-query
	// deadline (counted from the moment a serving goroutine picks the query
	// up), fallback, and Workers — the fused walk's parallelism budget
	// (queries walked concurrently, leftover budget split over a block's
	// rows; GOMAXPROCS when 0, results bit-identical at any setting).
	// Serve.Fallback also answers shed queries. A query's own deadline and
	// cancellation come from the context its caller passed to Estimate.
	Serve ServeOptions
}

func (o CoalesceOptions) withDefaults() CoalesceOptions {
	if o.Window <= 0 {
		o.Window = 2 * time.Millisecond
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 256
	}
	return o
}

type coalesceReq struct {
	q     Query
	ctx   context.Context // the caller's: cancelling it stops the query at its next block
	ch    chan Result     // buffered(1): dispatch never blocks on an abandoned caller
	start time.Time       // arrival time, for the per-query latency observation
}

// Coalescer batches concurrent single-query requests into fused dispatches:
// requests arriving within a micro-batch window are compiled and served
// together through EstimateFused: each serving goroutine walks its queries'
// admission waves back to back on one model replica and one set of block
// buffers.
// Results are bit-identical to serving each query alone (the fused walk's
// determinism contract), so coalescing changes latency and throughput, never
// answers. Each query carries its caller's context into the walk, so a
// caller that gives up stops its query at the next block.
//
// Each dispatch loads the serving bundle once, so every query in a batch is
// compiled and estimated against the same model version even across a
// concurrent hot-swap. Safe for concurrent use.
type Coalescer struct {
	e    *Estimator
	opts CoalesceOptions
	sem  chan struct{} // MaxInFlight slots

	mu      sync.Mutex
	queue   []coalesceReq
	timer   *time.Timer
	pending int // enqueued or waiting for an in-flight slot
	closed  bool
	// timerGen numbers micro-batch windows. A window's AfterFunc callback
	// captures the generation that scheduled it; a callback that fired while
	// another flush held the lock (Stop returns false once the function has
	// started) would otherwise run against the NEXT window, dispatching it
	// before its own window elapsed and clobbering its timer. Stale callbacks
	// compare generations and become no-ops instead.
	timerGen uint64
}

// NewCoalescer builds a request coalescer over the estimator. Close it when
// done to flush the last partial batch.
func (e *Estimator) NewCoalescer(opts CoalesceOptions) *Coalescer {
	opts = opts.withDefaults()
	return &Coalescer{
		e:    e,
		opts: opts,
		sem:  make(chan struct{}, opts.MaxInFlight),
	}
}

// Estimate submits one query and blocks until its batch is served, the
// context is cancelled, or admission control sheds it. The returned Result
// carries the same provenance tags as EstimateBatchCtx, plus Stop == StopShed
// (with ErrShed) for shed queries.
func (c *Coalescer) Estimate(ctx context.Context, q Query) Result {
	start := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Result{Source: SourceFailed, Err: ErrCoalescerClosed}
	}
	if c.pending >= c.opts.MaxQueue {
		c.mu.Unlock()
		return c.shed(q, start)
	}
	req := coalesceReq{q: q, ctx: ctx, ch: make(chan Result, 1), start: start}
	c.queue = append(c.queue, req)
	c.pending++
	switch {
	case len(c.queue) >= c.opts.MaxBatch:
		c.flushLocked()
	case c.timer == nil:
		c.timerGen++
		gen := c.timerGen
		c.timer = time.AfterFunc(c.opts.Window, func() { c.flush(gen) })
	}
	c.mu.Unlock()

	select {
	case res := <-req.ch:
		return res
	case <-ctx.Done():
		// The batch still runs; this caller stops waiting for it, and its
		// query stops at its next block.
		return Result{Source: SourceFailed, Err: ctx.Err(), Stop: StopCancel}
	}
}

// shed answers a rejected query from the fallback (when configured) without
// touching the model, and records it in the estimator's metrics and trace
// ring as a shed.
func (c *Coalescer) shed(q Query, start time.Time) Result {
	v := c.e.cur.Load()
	res := Result{Source: SourceFailed, Err: ErrShed, Stop: StopShed, ModelVersion: v.id}
	if fb := c.opts.Serve.Fallback; fb != nil {
		if req, err := compileFor(v, q); err == nil {
			res.Sel = fb(req.Region)
			res.Source = SourceFallback
		} else {
			res.Err = errors.Join(ErrShed, err)
		}
	}
	v.sampler.Observe(obs.PathShed, &res, time.Since(start))
	return res
}

// flush dispatches the window that scheduled it (gen), expiring. A stale
// callback — one whose window was already flushed by MaxBatch or Close while
// the callback sat blocked on the lock — finds its generation superseded (or
// its timer already consumed) and does nothing: the current window keeps its
// own timer and full window span.
func (c *Coalescer) flush(gen uint64) {
	c.mu.Lock()
	if gen == c.timerGen && c.timer != nil {
		c.flushLocked()
	}
	c.mu.Unlock()
}

// flushLocked drains the queue into batches of at most MaxBatch, each served
// by its own dispatch goroutine (bounded by the in-flight semaphore).
func (c *Coalescer) flushLocked() {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	for len(c.queue) > 0 {
		n := len(c.queue)
		if n > c.opts.MaxBatch {
			n = c.opts.MaxBatch
		}
		batch := make([]coalesceReq, n)
		copy(batch, c.queue[:n])
		c.queue = c.queue[n:]
		if len(c.queue) == 0 {
			c.queue = nil
		}
		go c.dispatch(batch)
	}
}

// dispatch serves one batch through the fused scheduler. The serving bundle
// is loaded exactly once, so compilation and estimation agree on the model
// version for the whole batch.
func (c *Coalescer) dispatch(batch []coalesceReq) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	c.mu.Lock()
	c.pending -= len(batch)
	c.mu.Unlock()

	v := c.e.cur.Load()
	reqs := make([]core.Request, 0, len(batch))
	idx := make([]int, 0, len(batch))
	for i, req := range batch {
		creq, err := compileFor(v, req.q)
		if err != nil {
			// Answered directly, but still observed: compile failures count in
			// the failed-path metrics and trace ring exactly like queries that
			// fail inside the sampler (EstimateBatchCtx's accounting).
			res := Result{Source: SourceFailed, Err: err, ModelVersion: v.id}
			v.sampler.Observe(obs.PathFailed, &res, time.Since(req.start))
			req.ch <- res
			continue
		}
		creq.Ctx = req.ctx
		reqs = append(reqs, creq)
		idx = append(idx, i)
	}
	if len(reqs) == 0 {
		return
	}
	// The batch has no context of its own: each query runs under its
	// caller's.
	results := v.sampler.EstimateFused(context.Background(), reqs, c.opts.Serve)
	for j, res := range results {
		batch[idx[j]].ch <- res
	}
}

// Close flushes the last partial batch and rejects future submissions.
// In-flight batches complete; their callers still receive results.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.flushLocked()
	c.mu.Unlock()
}
