package naru

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ErrShed tags a query rejected by the admission gate: the queries waiting
// for a walk slot already numbered CoalesceOptions.MaxQueue, so the query was
// answered by the 1D-statistics fallback (or failed, when none is configured)
// without ever reaching the model.
var ErrShed = errors.New("naru: backlog full, query shed")

// ErrCoalescerClosed is returned for queries submitted after Close.
var ErrCoalescerClosed = errors.New("naru: coalescer closed")

// CoalesceOptions tunes the admission gate (Estimator.NewCoalescer).
type CoalesceOptions struct {
	// MaxInFlight caps the queries walking at once; an admitted query waits
	// for one of these slots (default GOMAXPROCS).
	MaxInFlight int
	// MaxQueue is the admission-control threshold: once this many admitted
	// queries are waiting for a slot, new arrivals are shed to the fallback
	// (default 256).
	MaxQueue int
	// Serve configures each query's walk: target stderr, per-query deadline
	// (counted from the moment the query takes its slot) and fallback, which
	// also answers shed queries. A query's own deadline and cancellation come
	// from the context its caller passed to Estimate. Workers is ignored: the
	// gate walks each query alone at Workers = 1, on its caller's goroutine,
	// and MaxInFlight bounds how many walk at once.
	Serve ServeOptions
}

func (o CoalesceOptions) withDefaults() CoalesceOptions {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 256
	}
	o.Serve.Workers = 1
	return o
}

// Coalescer is the admission gate in front of the estimator's fused walk. At
// most MaxInFlight queries walk at once; an admitted query waits for a slot,
// and past MaxQueue waiting queries a new one is shed. It no longer batches:
// a fused block holds one query, so queries that arrived together shared
// nothing but the wait for each other.
//
// A query that takes a slot loads the serving bundle once, so it compiles
// and walks against one model version even across a concurrent hot-swap. It
// then walks alone through EstimateFused at one worker, on its caller's
// goroutine and under its caller's context, so a caller that gives up stops
// its query at the next block. Full-budget answers are bit-identical to
// serving the same queries one at a time through SelectivityBatchCtx at
// Workers = 1. Safe for concurrent use.
type Coalescer struct {
	e    *Estimator
	opts CoalesceOptions
	sem  chan struct{} // MaxInFlight walk slots

	mu      sync.Mutex
	pending int // admitted, waiting for a slot
	closed  bool
}

// NewCoalescer builds an admission gate over the estimator. Close it when
// done.
func (e *Estimator) NewCoalescer(opts CoalesceOptions) *Coalescer {
	opts = opts.withDefaults()
	return &Coalescer{
		e:    e,
		opts: opts,
		sem:  make(chan struct{}, opts.MaxInFlight),
	}
}

// Estimate admits one query and blocks until it is served, its context is
// cancelled while it waits for a slot, or admission control sheds it. The
// returned Result carries the same provenance tags as EstimateBatchCtx, plus
// Stop == StopShed (with ErrShed) for shed queries and Stop == StopCancel for
// a caller that gave up before its query took a slot.
func (c *Coalescer) Estimate(ctx context.Context, q Query) Result {
	start := time.Now()
	c.mu.Lock()
	closed, full := c.closed, c.pending >= c.opts.MaxQueue
	if !closed && !full {
		c.pending++
	}
	c.mu.Unlock()
	switch {
	case closed:
		return Result{Source: SourceFailed, Err: ErrCoalescerClosed}
	case full:
		return c.shed(q, start)
	}

	var slot bool
	select {
	case c.sem <- struct{}{}:
		slot = true
	case <-ctx.Done():
	}
	c.mu.Lock()
	c.pending--
	c.mu.Unlock()
	if !slot {
		return Result{Source: SourceFailed, Err: ctx.Err(), Stop: StopCancel}
	}
	defer func() { <-c.sem }()
	return c.serve(ctx, q, start)
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

// serve compiles q against the serving bundle, loaded once, and walks it
// alone through the fused walk.
func (c *Coalescer) serve(ctx context.Context, q Query, start time.Time) Result {
	v := c.e.cur.Load()
	req, err := compileFor(v, q)
	if err != nil {
		// Answered here, but still observed: compile failures count in the
		// failed-path metrics and trace ring exactly like queries that fail
		// inside the walk.
		res := Result{Source: SourceFailed, Err: err, ModelVersion: v.id}
		v.sampler.Observe(obs.PathFailed, &res, time.Since(start))
		return res
	}
	return v.sampler.EstimateFused(ctx, []core.Request{req}, c.opts.Serve)[0]
}

// Close rejects future queries with ErrCoalescerClosed. Admitted queries,
// walking or waiting for a slot, are still served.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}
