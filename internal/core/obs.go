package core

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// Serving metric families (Prometheus names). The path counters mirror the
// obs.Path* trace constants; the budget counters let an operator compute the
// effective sample completion ratio under deadline pressure.
const (
	metricQueries          = "naru_queries_total"
	metricPathEnum         = "naru_query_path_enum_total"
	metricPathSample       = "naru_query_path_sample_total"
	metricPathEmpty        = "naru_query_path_empty_total"
	metricPathDegraded     = "naru_query_path_degraded_total"
	metricPathFallback     = "naru_query_path_fallback_total"
	metricPathFailed       = "naru_query_path_failed_total"
	metricPathShed         = "naru_query_path_shed_total"
	metricPathBreaker      = "naru_query_path_breaker_total"
	metricPanicsRecovered  = "naru_query_panics_recovered_total"
	metricSamplesRequested = "naru_sample_paths_requested_total"
	metricSamplesCompleted = "naru_sample_paths_completed_total"
	metricQueryLatency     = "naru_query_latency_seconds"
	metricFusedWorkers     = "naru_fused_workers"
	metricFusedBlocks      = "naru_fused_blocks_total"
	metricFusedRowsWalked  = "naru_fused_rows_walked_total"
	metricFusedRowsDecoded = "naru_fused_rows_decoded_total"
	metricFusedReserved    = "naru_fused_reserved_total"
)

// estObs bundles the estimator's pre-resolved metric handles. The zero value
// (all nil, reg == nil) disables collection: every instrumentation site
// checks reg once, and the nil handles short-circuit, so the disabled cost
// is one predictable branch per query — estimates stay bit-identical either
// way because nothing here touches the seeded RNG streams.
type estObs struct {
	reg              *obs.Registry
	queries          *obs.Counter
	paths            map[string]*obs.Counter // obs.Path* -> its path counter
	panicsRecovered  *obs.Counter
	samplesRequested *obs.Counter
	samplesCompleted *obs.Counter
	latency          *obs.Histogram

	// Fused-walk instrumentation: the worker count the last EstimateFused
	// call resolved to (gauge), tall blocks the model's own block walk
	// walked, the row-columns those blocks walked and the ones the model
	// decoded (one per prefix group; their ratio is the share of rows that
	// reach the model), and queries restarted on CondBatch blocks after
	// their block panicked (counters). CondBatch blocks count in none.
	fusedWorkers     *obs.Gauge
	fusedBlocks      *obs.Counter
	fusedRowsWalked  *obs.Counter
	fusedRowsDecoded *obs.Counter
	fusedReserved    *obs.Counter
}

// SetObserver attaches a metrics registry to the estimator: every query
// served afterwards increments the naru_query_* families and leaves a trace
// record. A nil registry detaches (the default). Attach before serving;
// concurrent mutation with in-flight queries is not synchronized.
func (e *Estimator) SetObserver(r *obs.Registry) {
	if r == nil {
		e.obs = estObs{}
		return
	}
	e.obs = estObs{
		reg:     r,
		queries: r.Counter(metricQueries),
		paths: map[string]*obs.Counter{
			obs.PathEnum:     r.Counter(metricPathEnum),
			obs.PathSample:   r.Counter(metricPathSample),
			obs.PathEmpty:    r.Counter(metricPathEmpty),
			obs.PathDegraded: r.Counter(metricPathDegraded),
			obs.PathFallback: r.Counter(metricPathFallback),
			obs.PathFailed:   r.Counter(metricPathFailed),
			obs.PathShed:     r.Counter(metricPathShed),
			obs.PathBreaker:  r.Counter(metricPathBreaker),
		},
		panicsRecovered:  r.Counter(metricPanicsRecovered),
		samplesRequested: r.Counter(metricSamplesRequested),
		samplesCompleted: r.Counter(metricSamplesCompleted),
		latency:          r.Histogram(metricQueryLatency, obs.LatencyBuckets),
		fusedWorkers:     r.Gauge(metricFusedWorkers),
		fusedBlocks:      r.Counter(metricFusedBlocks),
		fusedRowsWalked:  r.Counter(metricFusedRowsWalked),
		fusedRowsDecoded: r.Counter(metricFusedRowsDecoded),
		fusedReserved:    r.Counter(metricFusedReserved),
	}
}

// Observer returns the attached registry (nil when observability is off).
func (e *Estimator) Observer() *obs.Registry { return e.obs.reg }

// observeServed records one query served by either walk, after fallback
// routing has resolved the final Result.
func (e *Estimator) observeServed(res *Result, reg *query.Region, deadline time.Duration, elapsed time.Duration) {
	path, requested := obs.PathSample, e.samples
	switch res.Source {
	case SourceModel:
		switch {
		case reg.IsEmpty():
			path, requested = obs.PathEmpty, 0
		case res.Samples == 0:
			path, requested = obs.PathEnum, 0
		}
	case SourceDegraded:
		path = obs.PathDegraded
	case SourceFallback:
		path = obs.PathFallback
	case SourceFailed:
		path = obs.PathFailed
	}
	e.record(path, requested, res, deadline, elapsed)
}

// Observe records a query answered on path (one of the obs.Path* constants)
// without reaching a walk — the request coalescer's sheds and compile
// errors, the circuit breaker's rejections — so it is counted and traced
// exactly like a served query. res carries the answer the caller returns.
// A no-op without an attached registry.
func (e *Estimator) Observe(path string, res *Result, elapsed time.Duration) {
	if e.obs.reg != nil {
		e.record(path, 0, res, 0, elapsed)
	}
}

// record is the one place a query reaches the metric families and the trace
// ring: its path counter, the recovered-panic and sample-budget counters, the
// latency histogram, and a trace record.
func (e *Estimator) record(path string, requested int, res *Result, deadline, elapsed time.Duration) {
	o := &e.obs
	o.queries.Inc()
	o.paths[path].Inc()
	recovered := errors.Is(res.Err, ErrPanicked)
	if recovered {
		o.panicsRecovered.Inc()
	}
	o.samplesRequested.Add(uint64(requested))
	o.samplesCompleted.Add(uint64(res.Samples))
	o.latency.ObserveDuration(elapsed)
	tr := obs.QueryTrace{
		Path:         path,
		Requested:    requested,
		Completed:    res.Samples,
		Sel:          res.Sel,
		StdErr:       res.StdErr,
		LatencyNS:    elapsed.Nanoseconds(),
		Recovered:    recovered,
		StopReason:   res.Stop.String(),
		ModelVersion: res.ModelVersion,
	}
	if deadline > 0 {
		tr.DeadlineSlackNS = (deadline - elapsed).Nanoseconds()
	}
	if res.Err != nil {
		tr.Err = res.Err.Error()
	}
	o.reg.RecordTrace(tr)
}
