package naru

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Serving degradation state machine. The serve path is always able to answer
// something — the question the state machine settles is what quality of
// answer callers should expect, and whether a load balancer should keep
// routing here:
//
//	Healthy      → full-budget model answers
//	Degraded     → model answering, but deadline pressure is cutting budgets
//	FallbackOnly → circuit breaker open: model path bypassed, every answer
//	               is the 1D-statistics fallback (provenance-tagged), while a
//	               background probe retries the model with jittered
//	               exponential backoff
//	Draining     → shutdown in progress; terminal
//
// The breaker trips on a streak of consecutive model-path failures (panics,
// exhausted budgets, non-finite estimates) — one bad query is contained by
// the per-query isolation in internal/core, but a streak means the model or
// its version bundle is systematically broken, and burning a full sample
// budget per request to find that out again is how serving latency melts
// down. Readiness (/readyz) is Healthy/Degraded only, so FallbackOnly
// replicas drop out of rotation without being restarted.

// ServeState is the serve path's degradation state.
type ServeState int32

const (
	// StateHealthy: the model path is answering normally.
	StateHealthy ServeState = iota
	// StateDegraded: the model is answering but under pressure (deadline-cut
	// budgets); still ready for traffic.
	StateDegraded
	// StateFallbackOnly: the circuit breaker is open; queries bypass the
	// model and are answered by the fallback until a probe succeeds.
	StateFallbackOnly
	// StateDraining: shutdown in progress; terminal.
	StateDraining
)

// String implements fmt.Stringer; the names appear in /healthz JSON.
func (s ServeState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateFallbackOnly:
		return "fallback_only"
	case StateDraining:
		return "draining"
	}
	return "unknown"
}

// Ready reports whether a load balancer should route traffic to this state.
func (s ServeState) Ready() bool { return s == StateHealthy || s == StateDegraded }

// ErrBreakerOpen tags a query turned away from the model path by the open
// circuit breaker (answered by the fallback when one is configured).
var ErrBreakerOpen = errors.New("naru: circuit breaker open, model path bypassed")

// Breaker metric families.
const (
	metricServeState        = "naru_serve_state"
	metricBreakerTrips      = "naru_breaker_trips_total"
	metricBreakerProbes     = "naru_breaker_probes_total"
	metricBreakerRecoveries = "naru_breaker_recoveries_total"
)

// BreakerOptions tunes the circuit breaker (Estimator.NewBreaker).
type BreakerOptions struct {
	// Threshold is how many CONSECUTIVE model-path failures trip the breaker
	// (default 5). Sheds, breaker rejections, and client cancellations never
	// count — only the model path's own failures.
	Threshold int
	// ProbeInterval is the delay before the first recovery probe after a
	// trip; subsequent probes back off exponentially (default 1s).
	ProbeInterval time.Duration
	// MaxProbeInterval caps the backoff (default 30s).
	MaxProbeInterval time.Duration
	// Seed drives the probe jitter (±20%), so a fleet tripping together does
	// not probe in lockstep; deterministic for tests.
	Seed int64
	// Metrics, when non-nil, receives naru_serve_state and the
	// naru_breaker_* families (defaults to the estimator's registry).
	Metrics *Metrics
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Threshold <= 0 {
		o.Threshold = 5
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.MaxProbeInterval <= 0 {
		o.MaxProbeInterval = 30 * time.Second
	}
	return o
}

// Breaker is the serve path's circuit breaker and state-machine owner. All
// methods are safe for concurrent use; Observe is designed to sit on the hot
// path (two atomic ops per result in the healthy case).
type Breaker struct {
	e    *Estimator
	opts BreakerOptions

	state  atomic.Int32
	streak atomic.Int32

	tripCh    chan struct{} // buffered(1): trip signal to the probe loop
	done      chan struct{}
	drained   chan struct{} // closed by Drain: cancels sleeping and in-flight probes
	closeOnce sync.Once
	drainOnce sync.Once
	wg        sync.WaitGroup

	stateGauge *obs.Gauge
	trips      *obs.Counter
	probes     *obs.Counter
	recoveries *obs.Counter
}

// NewBreaker builds a circuit breaker over the estimator's serve path. Call
// Start to launch the recovery probe loop and Close on shutdown.
func (e *Estimator) NewBreaker(opts BreakerOptions) *Breaker {
	opts = opts.withDefaults()
	b := &Breaker{
		e:       e,
		opts:    opts,
		tripCh:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	reg := opts.Metrics
	if reg == nil {
		e.obsMu.Lock()
		reg = e.obsReg
		e.obsMu.Unlock()
	}
	if reg != nil {
		b.stateGauge = reg.Gauge(metricServeState)
		b.trips = reg.Counter(metricBreakerTrips)
		b.probes = reg.Counter(metricBreakerProbes)
		b.recoveries = reg.Counter(metricBreakerRecoveries)
	}
	b.setState(StateHealthy)
	return b
}

// State returns the current degradation state.
func (b *Breaker) State() ServeState { return ServeState(b.state.Load()) }

// Allow reports whether the model path is open for queries. When false, the
// caller should answer via Reject instead.
func (b *Breaker) Allow() bool {
	s := b.State()
	return s != StateFallbackOnly && s != StateDraining
}

// setState stores the state and mirrors it into the gauge, skipping
// transitions out of Draining (terminal).
func (b *Breaker) setState(s ServeState) {
	for {
		old := b.state.Load()
		if ServeState(old) == StateDraining && s != StateDraining {
			return
		}
		if b.state.CompareAndSwap(old, int32(s)) {
			b.stateGauge.Set(float64(s))
			return
		}
	}
}

// Observe classifies one served result into the state machine. A model
// answer (SourceModel) clears the failure streak and restores Healthy; a
// degraded answer (SourceDegraded) marks Degraded without touching the
// streak — the model IS answering; a model-path failure (SourceFailed, or
// SourceFallback where the fallback covered for the model) extends the
// streak and trips the breaker at the threshold. Sheds, breaker rejections,
// client cancellations and queries that do not compile (ErrCompile) are not
// model failures and are ignored.
func (b *Breaker) Observe(res Result) {
	switch res.Source {
	case SourceModel:
		b.streak.Store(0)
		if b.State() == StateDegraded {
			b.setState(StateHealthy)
		}
	case SourceDegraded:
		b.streak.Store(0)
		if b.State() == StateHealthy {
			b.setState(StateDegraded)
		}
	case SourceFallback, SourceFailed:
		if res.Err != nil &&
			(errors.Is(res.Err, ErrShed) || errors.Is(res.Err, ErrBreakerOpen) ||
				errors.Is(res.Err, ErrCoalescerClosed) || errors.Is(res.Err, context.Canceled) ||
				errors.Is(res.Err, ErrCompile)) {
			return
		}
		if int(b.streak.Add(1)) >= b.opts.Threshold {
			b.trip()
		}
	}
}

// trip opens the breaker and wakes the probe loop. Idempotent while open.
func (b *Breaker) trip() {
	if s := b.State(); s == StateFallbackOnly || s == StateDraining {
		return
	}
	b.setState(StateFallbackOnly)
	b.trips.Inc()
	select {
	case b.tripCh <- struct{}{}:
	default:
	}
}

// Trip opens the breaker explicitly (version-load failures that exhausted
// their retries use it; tests too).
func (b *Breaker) Trip() { b.trip() }

// Reject answers a query while the breaker is open: the fallback estimates
// it (when configured) without the model running, tagged SourceFallback with
// ErrBreakerOpen preserved; without a fallback the result is SourceFailed.
// Recorded in metrics and the trace ring under the "breaker" path.
func (b *Breaker) Reject(q Query, fb func(*Region) float64) Result {
	start := time.Now()
	v := b.e.cur.Load()
	res := Result{Source: SourceFailed, Err: ErrBreakerOpen, ModelVersion: v.id}
	if fb != nil {
		if req, err := compileFor(v, q); err == nil {
			res.Sel = fb(req.Region)
			res.Source = SourceFallback
		} else {
			res.Err = errors.Join(ErrBreakerOpen, err)
		}
	}
	v.sampler.Observe(obs.PathBreaker, &res, time.Since(start))
	return res
}

// Start launches the recovery probe loop: after each trip, probe runs under
// jittered exponential backoff (ProbeInterval doubling to MaxProbeInterval,
// ±20% seeded jitter) until it succeeds, which closes the breaker back to
// Healthy. probe should exercise the genuine model path — the serve command
// runs an unrestricted-region estimate and checks the answer's provenance.
func (b *Breaker) Start(probe func(ctx context.Context) error) {
	// base is cancelled the moment the breaker drains or closes, so a probe
	// that is mid-estimate when shutdown starts is cut off instead of running
	// a model query against a draining server.
	base, baseCancel := context.WithCancel(context.Background())
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		select {
		case <-b.done:
		case <-b.drained:
		}
		baseCancel()
	}()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		rng := rand.New(rand.NewSource(b.opts.Seed))
		for {
			select {
			case <-b.done:
				return
			case <-b.drained:
				// Draining is terminal: no probe may fire after it, so the
				// loop exits instead of idling for a trip that cannot recover.
				return
			case <-b.tripCh:
			}
			delay := b.opts.ProbeInterval
			for b.State() == StateFallbackOnly {
				jittered := time.Duration(float64(delay) * (0.8 + 0.4*rng.Float64()))
				select {
				case <-b.done:
					return
				case <-b.drained:
					// A backoff-sleeping probe is cancelled by drain, not left
					// to wake and estimate during shutdown.
					return
				case <-time.After(jittered):
				}
				if b.State() != StateFallbackOnly {
					break
				}
				b.probes.Inc()
				ctx, cancel := context.WithTimeout(base, delay+b.opts.ProbeInterval)
				err := probe(ctx)
				cancel()
				if err == nil {
					b.streak.Store(0)
					b.setState(StateHealthy)
					b.recoveries.Inc()
					break
				}
				if delay *= 2; delay > b.opts.MaxProbeInterval {
					delay = b.opts.MaxProbeInterval
				}
			}
		}
	}()
}

// Drain moves the state machine to its terminal Draining state (readiness
// goes false; in-flight queries finish) and cancels the probe loop: a probe
// sleeping out its backoff exits immediately, and one mid-estimate has its
// context cancelled — no model estimate fires after drain. Used at shutdown.
func (b *Breaker) Drain() {
	b.setState(StateDraining)
	b.drainOnce.Do(func() { close(b.drained) })
}

// Close stops the probe loop. It does not change the state; call Drain first
// during shutdown.
func (b *Breaker) Close() {
	b.closeOnce.Do(func() { close(b.done) })
	b.wg.Wait()
}
