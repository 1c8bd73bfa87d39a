package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	naru "repro"
	"repro/internal/lifecycle"
)

// Options configures a Server.
type Options struct {
	// Metrics is the root registry shared by every tenant (nil disables
	// collection). One exposition endpoint serves all tenants: labelled
	// tenant views write into this same registry.
	Metrics *naru.Metrics
	// Logf receives operational log lines (refresh outcomes, probe trips);
	// nil discards them.
	Logf func(format string, args ...any)
}

// Server hosts many serving tenants, single-table and join alike, behind one
// mux: /v1/{tenant}/... routes by name, the legacy single-tenant routes alias
// the default tenant, and the process-level health probes aggregate across
// every tenant. Add tenants before Start; the tenant set is immutable while
// serving.
type Server struct {
	opts    Options
	mu      sync.Mutex
	tenants map[string]*Tenant
	order   []string // insertion order, for stable listings
	def     string   // legacy-route alias target

	ctx       context.Context // set by Start; scopes background refreshes
	refreshWG sync.WaitGroup
}

// New creates an empty server. Add tenants with Add, then Start it.
func New(opts Options) *Server {
	return &Server{opts: opts, tenants: make(map[string]*Tenant)}
}

// Add registers a tenant. The first tenant added becomes the default (the
// legacy-route alias target) until SetDefault overrides it.
func (s *Server) Add(tn *Tenant) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tn.name == "" {
		return errors.New("server: tenant has no name")
	}
	if _, dup := s.tenants[tn.name]; dup {
		return fmt.Errorf("server: duplicate tenant %q", tn.name)
	}
	s.tenants[tn.name] = tn
	s.order = append(s.order, tn.name)
	if s.def == "" {
		s.def = tn.name
	}
	return nil
}

// SetDefault names the tenant the legacy single-tenant routes alias to.
func (s *Server) SetDefault(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; !ok {
		return fmt.Errorf("server: default tenant %q not registered", name)
	}
	s.def = name
	return nil
}

// Tenant returns the named tenant (nil if unknown).
func (s *Server) Tenant(name string) *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

// Default returns the legacy-route alias tenant (nil when none registered).
func (s *Server) Default() *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[s.def]
}

// Names lists the registered tenants in insertion order.
func (s *Server) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// snapshotTenants copies the tenant list for lock-free iteration.
func (s *Server) snapshotTenants() []*Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Tenant, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.tenants[name])
	}
	return out
}

// Start arms the background machinery: ctx scopes every tenant's lifecycle
// refresh (cancel it to abort refreshes between gradient steps; they flush a
// final checkpoint), and each tenant's append hook is wired to kick its own
// refresh under its own budget. Call before serving the Handler.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	s.ctx = ctx
	s.mu.Unlock()
	tenants := s.snapshotTenants()
	for _, tn := range tenants {
		tn := tn
		tn.onAppend = func() { s.kickRefresh(tn) }
	}
	if s.opts.Metrics != nil {
		s.opts.Metrics.Gauge("naru_tenants").Set(float64(len(tenants)))
	}
}

// kickRefresh starts a background refresh for one tenant when its kind says
// one is warranted and none is running. The refresh inherits the Start
// context: cancelling it aborts between gradient steps (a single-table
// refresh flushes its final checkpoint) before Close returns.
func (s *Server) kickRefresh(tn *Tenant) {
	if !tn.kind.refreshDue() {
		return
	}
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s.refreshWG.Add(1)
	go func() {
		defer s.refreshWG.Done()
		msg, err := tn.kind.refresh(ctx)
		switch {
		case errors.Is(err, lifecycle.ErrRefreshRunning):
		case err != nil:
			s.logf("lifecycle[%s]: refresh: %v", tn.name, err)
		default:
			s.logf("lifecycle[%s]: %s", tn.name, msg)
		}
	}()
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Drain moves every tenant's breaker to its terminal Draining state:
// process-level and per-tenant readiness go false, probe loops exit, and
// in-flight queries finish on the version they loaded. First step of
// shutdown, before the HTTP server stops accepting.
func (s *Server) Drain() {
	for _, tn := range s.snapshotTenants() {
		tn.drain()
	}
}

// Close shuts the serving machinery down: every tenant's admission gate
// stops admitting and its breaker probe loop stops, then in-flight lifecycle
// refreshes are waited for (cancel the Start context first so they abort and
// checkpoint rather than run to completion).
func (s *Server) Close() {
	for _, tn := range s.snapshotTenants() {
		tn.close()
	}
	s.refreshWG.Wait()
}

// Handler builds the serving mux:
//
//	/v1/{tenant}/estimate   GET ?where=... — one estimate as JSON
//	/v1/{tenant}/append     POST text/csv rows (no header)
//	/v1/{tenant}/drift      GET drift monitor reading
//	/v1/{tenant}/models     GET registered model versions
//	/v1/{tenant}/healthz    GET per-tenant health
//	/v1/{tenant}/readyz     GET per-tenant readiness
//	/v1/tenants             GET tenant listing
//	/estimate /append /drift /models   legacy aliases → default tenant
//	/healthz /readyz        process-level aggregates across all tenants
//	/livez                  pure process liveness
//	/                       plain-text route documentation
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/v1/tenants", s.handleTenants)
	forTenant := func(h func(*Tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			name := r.PathValue("tenant")
			if tn := s.Tenant(name); tn != nil {
				h(tn, w, r)
				return
			}
			http.Error(w, fmt.Sprintf("unknown tenant %q", name), http.StatusNotFound)
		}
	}
	forDefault := func(h func(*Tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			tn := s.Default()
			if tn == nil {
				http.Error(w, "no tenants registered", http.StatusServiceUnavailable)
				return
			}
			h(tn, w, r)
		}
	}
	mux.HandleFunc("/v1/{tenant}/estimate", forTenant((*Tenant).handleEstimate))
	mux.HandleFunc("/v1/{tenant}/append", forTenant((*Tenant).handleAppend))
	mux.HandleFunc("/v1/{tenant}/drift", forTenant((*Tenant).handleDrift))
	mux.HandleFunc("/v1/{tenant}/models", forTenant((*Tenant).handleModels))
	mux.HandleFunc("/v1/{tenant}/healthz", forTenant((*Tenant).handleHealthz))
	mux.HandleFunc("/v1/{tenant}/readyz", forTenant((*Tenant).handleReadyz))
	// Legacy single-tenant routes: aliases to the default tenant, so clients
	// of the pre-multi-tenant server keep working against the same paths.
	mux.HandleFunc("/estimate", forDefault((*Tenant).handleEstimate))
	mux.HandleFunc("/append", forDefault((*Tenant).handleAppend))
	mux.HandleFunc("/drift", forDefault((*Tenant).handleDrift))
	mux.HandleFunc("/models", forDefault((*Tenant).handleModels))
	s.RegisterHealth(mux)
	return mux
}

// RegisterHealth registers the process-level health probes (/healthz,
// /livez, /readyz) on a mux — shared by the serving mux and the metrics
// endpoint, so orchestrators probing either port see the same view.
func (s *Server) RegisterHealth(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/livez", Livez)
	mux.HandleFunc("/readyz", s.handleReadyz)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	def := s.Default()
	if def == nil {
		fmt.Fprintln(w, "naru estimation service (no tenants registered)")
		return
	}
	t, _ := def.snapshot()
	fmt.Fprintf(w, "naru estimation service for %q\nGET /estimate?where=a<=5 AND b=x\nPOST /append (text/csv body, no header)\nGET /drift | /models | /healthz\n", t.Name)
	names := s.Names()
	if len(names) > 1 || names[0] != def.name {
		fmt.Fprintf(w, "\ntenants (legacy routes serve %q):\n", def.name)
		for _, name := range names {
			fmt.Fprintf(w, "  /v1/%s/{estimate,append,drift,models,healthz,readyz}\n", name)
		}
	}
}

// tenantInfo is one row of the /v1/tenants listing. A join tenant's Table is
// the join ("customers⋈orders⋈items") and its Rows the join size.
type tenantInfo struct {
	Name         string `json:"name"`
	Table        string `json:"table"`
	Default      bool   `json:"default,omitempty"`
	State        string `json:"state"`
	ModelVersion uint64 `json:"model_version"`
	Rows         int    `json:"rows"`
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	def := s.def
	s.mu.Unlock()
	infos := make([]tenantInfo, 0)
	for _, tn := range s.snapshotTenants() {
		t, rows := tn.snapshot()
		infos = append(infos, tenantInfo{
			Name:         tn.name,
			Table:        t.Name,
			Default:      tn.name == def,
			State:        tn.state().String(),
			ModelVersion: tn.est.ModelVersion(),
			Rows:         rows,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Default string       `json:"default"`
		Tenants []tenantInfo `json:"tenants"`
	}{Default: def, Tenants: infos})
}

// handleHealthz is the process-level /healthz: the default tenant's fields
// at the top level (the legacy single-tenant shape, byte-compatible for
// pre-multi-tenant probes) plus a per-tenant map when more than one tenant
// is registered. 503 only when no tenants are registered.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	tenants := s.snapshotTenants()
	def := s.Default()
	w.Header().Set("Content-Type", "application/json")
	if def == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(HealthResponse{Status: "no model loaded"})
		return
	}
	resp := healthFor(def.est, def.brk, def.kind)
	if len(tenants) > 1 {
		resp.Tenants = make(map[string]HealthResponse, len(tenants))
		for _, tn := range tenants {
			resp.Tenants[tn.name] = healthFor(tn.est, tn.brk, tn.kind)
		}
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// handleReadyz is the process-level /readyz: ready iff EVERY tenant is ready
// (a load balancer should not route to a replica that answers some tenants
// from the fallback), with the worst tenant state reported at the top level
// and the per-tenant split alongside.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	tenants := s.snapshotTenants()
	ready := len(tenants) > 0
	worst := naru.StateHealthy
	var perTenant map[string]ReadyResponse
	if len(tenants) > 1 {
		perTenant = make(map[string]ReadyResponse, len(tenants))
	}
	for _, tn := range tenants {
		st := tn.state()
		if st > worst {
			worst = st
		}
		if !st.Ready() {
			ready = false
		}
		if perTenant != nil {
			perTenant[tn.name] = ReadyResponse{Ready: st.Ready(), State: st.String()}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(ReadyResponse{
		Ready:   ready,
		State:   worst.String(),
		Tenants: perTenant,
	})
}

// HealthResponse is the JSON shape of the /healthz probe:
//
//	{"status":"ok","state":"healthy","model_version":3,
//	 "refreshing":false,"stale_model":false}
//
// status is "ok" whenever a model is loaded (back-compat: pre-breaker
// clients keyed on it); state is the degradation state-machine reading
// (healthy | degraded | fallback_only | draining), present when the breaker
// is enabled. The process-level probe adds a per-tenant map when the server
// hosts more than one tenant.
type HealthResponse struct {
	Status       string                    `json:"status"`
	State        string                    `json:"state,omitempty"`
	ModelVersion uint64                    `json:"model_version,omitempty"`
	Refreshing   bool                      `json:"refreshing,omitempty"`
	StaleModel   bool                      `json:"stale_model,omitempty"`
	Tenants      map[string]HealthResponse `json:"tenants,omitempty"`
}

// ReadyResponse is the JSON shape of the /readyz probe:
//
//	{"ready":true,"state":"degraded"}
//
// The process-level probe reports the worst state across tenants and adds
// the per-tenant split when more than one tenant is registered.
type ReadyResponse struct {
	Ready   bool                     `json:"ready"`
	State   string                   `json:"state"`
	Tenants map[string]ReadyResponse `json:"tenants,omitempty"`
}

// healthFor assembles one estimator's health reading; k supplies the
// refresh-in-progress and staleness flags.
func healthFor(est *naru.Estimator, brk *naru.Breaker, k kind) HealthResponse {
	resp := HealthResponse{Status: "ok", ModelVersion: est.ModelVersion()}
	if brk != nil {
		resp.State = brk.State().String()
	}
	resp.Refreshing, resp.StaleModel = k.refreshState()
	return resp
}

// Healthz reports serving health for one estimator: 503 only when no model
// is loaded. A refresh or hot-swap in progress is healthy (in-flight queries
// keep their version; new ones get the swapped one), as is a stale model —
// staleness is advisory, reported in the body for operators. The breaker's
// degradation state rides along in "state" but never changes the status
// code: /healthz is the legacy combined probe, /livez + /readyz the split
// pair.
func Healthz(w http.ResponseWriter, est *naru.Estimator, brk *naru.Breaker) {
	w.Header().Set("Content-Type", "application/json")
	if est == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(HealthResponse{Status: "no model loaded"})
		return
	}
	_ = json.NewEncoder(w).Encode(healthFor(est, brk, tableKind{est}))
}

// Livez is pure process liveness: if this handler runs, the process is up.
// Restarting a FallbackOnly replica doesn't fix a broken model, so liveness
// never consults the state machine — that's readiness's job.
func Livez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte("{\"alive\":true}\n"))
}

// Readyz reports whether one estimator should receive traffic: a model is
// loaded AND the degradation state is Healthy or Degraded. FallbackOnly and
// Draining return 503 so load balancers drain the replica while it probes
// its way back (or shuts down) — without killing it.
func Readyz(w http.ResponseWriter, est *naru.Estimator, brk *naru.Breaker) {
	state := naru.StateHealthy
	if brk != nil {
		state = brk.State()
	}
	ready := est != nil && state.Ready()
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(ReadyResponse{Ready: ready, State: state.String()})
}
