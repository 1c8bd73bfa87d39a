package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	naru "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// SiteServeRequest is the chaos fault point at the front door of a tenant's
// /estimate: before parsing, before the cache, before the model. Error mode
// maps to a 503 (the request never reached the estimator), exit mode kills
// the process mid-request — the kill-matrix restart scenario.
var SiteServeRequest = faultinject.Site("serve.request")

// Result-cache metric families (per tenant when metrics are labelled).
const (
	metricCacheHits   = "naru_cache_hits_total"
	metricCacheMisses = "naru_cache_misses_total"
)

// TenantOptions wires a Tenant directly over an already-loaded estimator and
// table — the construction path for tests and embedders. BuildTenant is the
// from-disk path driven by a TenantConfig.
type TenantOptions struct {
	// Serve configures per-query serving: deadline, target stderr and
	// fallback. Workers is ignored: the tenant's admission gate walks each
	// query alone on one core, and MaxInFlight bounds how many walk at once
	// (see naru.CoalesceOptions.Serve).
	Serve naru.ServeOptions
	// BatchWindow is ignored: every estimate goes through the tenant's
	// admission gate, which does not batch.
	//
	// Deprecated: BatchWindow has no effect and will be removed.
	BatchWindow time.Duration
	// MaxInFlight caps the queries walking at once (0 = GOMAXPROCS); an
	// estimate waits for a slot, and past 256 waiting estimates a new one is
	// shed.
	MaxInFlight int
	// CacheSize bounds the result cache (0 = default 1024, < 0 disables).
	CacheSize int
	// Breaker, when non-nil, arms the circuit breaker with these options
	// (BuildTenant fills it from TenantConfig's breaker_threshold and
	// probe_interval). Metrics defaults to this struct's Metrics, and the
	// probe interval to 1s.
	Breaker *naru.BreakerOptions
	// OnAppend, when non-nil, runs after every successful ingest, before the
	// server's own refresh kick.
	OnAppend func()
	// Metrics, when non-nil, is attached to the estimator's serving path and
	// receives the tenant's cache/breaker families. Pass a tenant-labelled
	// view (Registry.WithLabel("tenant", name)) for multi-tenant exposition,
	// or the root registry for legacy unlabelled names.
	Metrics *naru.Metrics
}

// defaultCacheSize bounds a tenant's result cache when the config does not.
const defaultCacheSize = 1024

// Tenant is one served model — over a single table or over a join — with
// its admission gate, breaker, result cache, and metrics namespace. The
// estimate path is the same for both kinds: the estimator's serving bundle
// decides how a query compiles and which row count its selectivity
// multiplies. Only ingestion, drift, refresh and the models listing go
// through the tenant's kind. All handler methods are safe for concurrent use.
type Tenant struct {
	name     string
	est      *naru.Estimator
	kind     kind
	t        *table.Table               // boot-time table, used when the estimator has none
	fallback func(*naru.Region) float64 // answers while the breaker is open
	coal     *naru.Coalescer            // the admission gate every model estimate passes
	brk      *naru.Breaker              // non-nil gates estimates through the circuit breaker
	reg      *naru.Metrics              // the tenant's (possibly labelled) registry view

	cache       *resultCache
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	retryAfter   string // Retry-After header value for 503 responses
	onAppend     func() // set by Server.Start: kicks the background refresh
	userOnAppend func() // TenantOptions.OnAppend, run first
}

// NewTenant builds a serving tenant over a loaded estimator and its table
// snapshot (nil for a join estimator from naru.ServeJoin, which serves its
// layout table). When opts.Metrics is non-nil it is attached to the
// estimator (replacing any prior registry) so the tenant's query families
// land in it. Enable the estimator's lifecycle before constructing the
// tenant; the tenant picks it up through the estimator.
func NewTenant(name string, est *naru.Estimator, t *table.Table, opts TenantOptions) *Tenant {
	if opts.Metrics != nil {
		est.SetMetrics(opts.Metrics)
	}
	var k kind = tableKind{est}
	if je := est.Join(); je != nil {
		k = &joinKind{est: je}
	}
	tn := &Tenant{
		name:         name,
		est:          est,
		kind:         k,
		t:            t,
		fallback:     opts.Serve.Fallback,
		reg:          opts.Metrics,
		userOnAppend: opts.OnAppend,
	}
	size := opts.CacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	tn.cache = newResultCache(size) // nil (always-miss) when size < 0
	if tn.cache != nil && opts.Metrics != nil {
		tn.cacheHits = opts.Metrics.Counter(metricCacheHits)
		tn.cacheMisses = opts.Metrics.Counter(metricCacheMisses)
	}
	if opts.Breaker != nil {
		bopts := *opts.Breaker
		if bopts.Metrics == nil {
			bopts.Metrics = opts.Metrics
		}
		if bopts.ProbeInterval <= 0 {
			bopts.ProbeInterval = time.Second
		}
		tn.brk = est.NewBreaker(bopts)
		tn.brk.Start(tn.probe)
		tn.retryAfter = fmt.Sprintf("%d", max(int(bopts.ProbeInterval.Seconds()), 1))
	}
	tn.coal = est.NewCoalescer(naru.CoalesceOptions{MaxInFlight: opts.MaxInFlight, Serve: opts.Serve})
	return tn
}

// probe is the breaker's recovery probe: one estimate through the serving
// path that must come back with model-path provenance. It restricts code 0
// of the first snapshot column whose predicate compiles (a join layout's
// fanout columns do not), so the model runs: an unrestricted query is
// answered 1 without it, and a poisoned model would pass. No fallback is
// configured, so a broken model cannot masquerade as recovered.
func (tn *Tenant) probe(ctx context.Context) error {
	t, _ := tn.snapshot()
	for col := 0; col < t.NumCols(); col++ {
		q := naru.Query{Preds: []naru.Predicate{{Col: col, Op: naru.OpEq, Code: 0}}}
		results, err := tn.est.SelectivityBatchCtx(ctx, []naru.Query{q}, naru.ServeOptions{Workers: 1})
		if errors.Is(err, naru.ErrCompile) {
			continue
		}
		if err != nil {
			return err
		}
		r := results[0]
		if r.Source != naru.SourceModel && r.Source != naru.SourceDegraded {
			if r.Err != nil {
				return r.Err
			}
			return fmt.Errorf("probe answered by %s", r.Source)
		}
		return nil
	}
	return errors.New("server: no snapshot column compiles a probe query")
}

// Name returns the tenant's routing name.
func (tn *Tenant) Name() string { return tn.name }

// Estimator returns the tenant's estimator (tests drive hot-swaps through
// it).
func (tn *Tenant) Estimator() *naru.Estimator { return tn.est }

// Breaker returns the tenant's circuit breaker (nil when not armed).
func (tn *Tenant) Breaker() *naru.Breaker { return tn.brk }

// snapshot returns the table queries parse against and the row count their
// selectivity multiplies (see naru.Estimator.Snapshot), falling back to the
// boot table for an estimator loaded from disk without one.
func (tn *Tenant) snapshot() (*table.Table, int) {
	if t, rows := tn.est.Snapshot(); t != nil {
		return t, int(rows)
	}
	return tn.t, tn.t.NumRows()
}

// epoch reads the tenant's current cache epoch: the version, stale flag, and
// snapshot row count a cached answer must match to be servable.
func (tn *Tenant) epoch(rows int) cacheEpoch {
	ep := cacheEpoch{version: tn.est.ModelVersion(), rows: rows}
	if lc := tn.est.Lifecycle(); lc != nil {
		ep.stale = lc.Stale()
	}
	return ep
}

// state returns the tenant's degradation state (Healthy without a breaker).
func (tn *Tenant) state() naru.ServeState {
	if tn.brk != nil {
		return tn.brk.State()
	}
	return naru.StateHealthy
}

// drain moves the tenant's breaker to Draining (no-op without one).
func (tn *Tenant) drain() {
	if tn.brk != nil {
		tn.brk.Drain()
	}
}

// close shuts down the tenant's admission gate and breaker probe loop.
func (tn *Tenant) close() {
	tn.coal.Close()
	if tn.brk != nil {
		tn.brk.Close()
	}
}

// EstimateResponse is the JSON shape of one served estimate.
type EstimateResponse struct {
	Query        string  `json:"query"`
	Sel          float64 `json:"sel"`
	Card         float64 `json:"card"`
	Source       string  `json:"source"`
	ModelVersion uint64  `json:"model_version,omitempty"`
	StdErr       float64 `json:"stderr,omitempty"`
	Samples      int     `json:"samples,omitempty"`
	StopReason   string  `json:"stop_reason,omitempty"`
	Cached       bool    `json:"cached,omitempty"`
	Err          string  `json:"err,omitempty"`
}

// AppendResponse is the JSON shape of one POST append.
type AppendResponse struct {
	Appended  int              `json:"appended"`
	TotalRows int              `json:"total_rows"`
	Drift     naru.DriftStatus `json:"drift"`
}

// handleEstimate answers one ?where= conjunction: cache, then breaker gate,
// then the admission gate.
func (tn *Tenant) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Point(SiteServeRequest); err != nil {
		tn.setRetryAfter(w)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	where := r.FormValue("where")
	if where == "" {
		http.Error(w, "missing ?where= conjunction", http.StatusBadRequest)
		return
	}
	// One snapshot per request: literal-to-code mapping and the row count
	// for cardinality come from the same table version.
	t, rows := tn.snapshot()
	q, err := query.ParseWhere(where, t)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad query %q: %v", where, err), http.StatusBadRequest)
		return
	}
	// The canonical query rendering is the cache key: queries that differ
	// only in whitespace or literal spelling share one entry. The epoch is
	// read once, before serving, so an answer computed against a version
	// being swapped out is stored under the old epoch and never replayed.
	key := q.String(t)
	epoch := tn.epoch(rows)
	if res, ok := tn.cache.get(key, epoch); ok {
		// A cache hit replays a deterministic model answer; it does not feed
		// the breaker (no model path ran, so it is evidence of nothing).
		tn.cacheHits.Inc()
		tn.writeEstimate(w, key, rows, res, true)
		return
	}
	if tn.cache != nil {
		tn.cacheMisses.Inc()
	}
	var res naru.Result
	if tn.brk != nil && !tn.brk.Allow() {
		// Breaker open (or draining): the model path is bypassed and the
		// fallback answers, with ErrBreakerOpen preserved as provenance.
		res = tn.brk.Reject(q, tn.fallback)
	} else {
		// The query waits for a walk slot and walks alone, under the client
		// connection's context; the gate answers a query that does not
		// compile with ErrCompile (400), and sheds past its queue bound.
		res = tn.coal.Estimate(r.Context(), q)
	}
	if tn.brk != nil {
		// Every served result feeds the state machine (breaker rejections and
		// sheds classify as non-failures inside Observe).
		tn.brk.Observe(res)
	}
	if cacheable(res) {
		tn.cache.put(key, epoch, res)
	}
	tn.writeEstimate(w, key, rows, res, false)
}

// writeEstimate renders one Result as the estimate JSON, mapping shed and
// breaker back-pressure to 503 + Retry-After, a query that does not compile
// against the serving model to 400, and genuine failures to 500.
func (tn *Tenant) writeEstimate(w http.ResponseWriter, canonical string, rows int, res naru.Result, cached bool) {
	resp := EstimateResponse{
		Query:        canonical,
		Sel:          res.Sel,
		Card:         res.Sel * float64(rows),
		Source:       res.Source.String(),
		ModelVersion: res.ModelVersion,
		StdErr:       res.StdErr,
		Samples:      res.Samples,
		StopReason:   res.Stop.String(),
		Cached:       cached,
	}
	if res.Err != nil {
		resp.Err = res.Err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	if res.Source == naru.SourceFailed {
		// Shed and breaker-open failures are back-pressure, not server bugs:
		// 503 + Retry-After tells well-behaved clients to ease off. A query
		// that does not compile is the client's (400); everything else
		// failing with no fallback is a genuine 500.
		switch {
		case errors.Is(res.Err, naru.ErrShed) || errors.Is(res.Err, naru.ErrBreakerOpen):
			tn.setRetryAfter(w)
			w.WriteHeader(http.StatusServiceUnavailable)
		case errors.Is(res.Err, naru.ErrCompile):
			w.WriteHeader(http.StatusBadRequest)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// setRetryAfter stamps the 503 back-pressure header (breaker probe interval
// when configured, 1s otherwise).
func (tn *Tenant) setRetryAfter(w http.ResponseWriter) {
	ra := tn.retryAfter
	if ra == "" {
		ra = "1"
	}
	w.Header().Set("Retry-After", ra)
}

// maxAppendBytes bounds one POST /append body, for both tenant kinds. A
// longer body answers 413 and appends nothing: both ingest paths reject a
// batch whole when reading it fails. A variable so tests can lower it.
var maxAppendBytes int64 = 64 << 20

func (tn *Tenant) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST CSV rows (no header) to /append", http.StatusMethodNotAllowed)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxAppendBytes)
	resp, status, err := tn.kind.ingest(r)
	if err != nil {
		var tooLong *http.MaxBytesError
		var netErr net.Error
		switch {
		case errors.As(err, &tooLong):
			status = http.StatusRequestEntityTooLarge
		case errors.As(err, &netErr) && netErr.Timeout():
			// The server's read timeout cut a stalled body short.
			status = http.StatusRequestTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
	if tn.userOnAppend != nil {
		tn.userOnAppend()
	}
	if tn.onAppend != nil {
		tn.onAppend()
	}
}

func (tn *Tenant) handleDrift(w http.ResponseWriter, r *http.Request) {
	drift, err := tn.kind.drift()
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(drift)
}

func (tn *Tenant) handleModels(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(tn.kind.models())
}

func (tn *Tenant) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(healthFor(tn.est, tn.brk, tn.kind))
}

func (tn *Tenant) handleReadyz(w http.ResponseWriter, r *http.Request) {
	Readyz(w, tn.est, tn.brk)
}

// kind is what differs between a single-table and a join tenant outside the
// estimate path: ingestion, the drift reading, refresh and the models
// listing, each in its kind's HTTP shape. tableKind serves them through the
// estimator's lifecycle manager, joinKind through the join estimator.
type kind interface {
	// ingest appends one POST /append body and returns the response to
	// encode, or an error and its HTTP status.
	ingest(r *http.Request) (resp any, status int, err error)
	// drift returns the drift reading (an error answers 501).
	drift() (any, error)
	models() any
	// refreshState feeds the health reading.
	refreshState() (refreshing, stale bool)
	// refreshDue reports whether a refresh is warranted and none is running.
	refreshDue() bool
	// refresh retrains and swaps in a new version, returning a log line.
	refresh(ctx context.Context) (string, error)
}

// tableKind is a single-table tenant's ingestion, drift, refresh and models
// listing: the estimator's lifecycle manager (501 without one).
type tableKind struct{ est *naru.Estimator }

// ingest appends the CSV body to the lifecycle snapshot.
func (k tableKind) ingest(r *http.Request) (any, int, error) {
	added, err := k.est.AppendCSV(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, naru.ErrLifecycleDisabled) {
			status = http.StatusNotImplemented
		}
		return nil, status, err
	}
	drift, _ := k.est.Drift()
	return AppendResponse{Appended: added, TotalRows: k.est.Lifecycle().Snapshot().NumRows(), Drift: drift}, 0, nil
}

func (k tableKind) drift() (any, error) { return k.est.Drift() }

func (k tableKind) models() any {
	return struct {
		Active   uint64             `json:"active"`
		Versions []naru.VersionMeta `json:"versions,omitempty"`
	}{Active: k.est.ModelVersion(), Versions: k.est.Versions()}
}

func (k tableKind) refreshState() (refreshing, stale bool) {
	if lc := k.est.Lifecycle(); lc != nil {
		return lc.Refreshing(), lc.Stale()
	}
	return false, false
}

func (k tableKind) refreshDue() bool {
	lc := k.est.Lifecycle()
	return lc != nil && !lc.Refreshing() && lc.ShouldRefresh()
}

func (k tableKind) refresh(ctx context.Context) (string, error) {
	res, err := k.est.RefreshCtx(ctx)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("swapped in version %d (nll %.4f, %d rows)", res.Version, res.NLL, res.Rows), nil
}
