package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	naru "repro"
	"repro/internal/server"
)

// The timeouts of both HTTP servers cmdServe runs. A client that stalls
// while sending its request headers is disconnected once readHeaderTimeout
// has passed, one that stalls while sending its body (an /append body may
// run to 64 MiB) once readTimeout has passed since its request began, and a
// keep-alive connection is closed after idleTimeout without a request.
// Without them a stalled client holds a handler goroutine, and the body
// buffered so far, for as long as it likes. Tests shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns a server for h with the timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// cmdServe runs a long-lived estimation service on top of internal/server,
// in one of two modes:
//
// Single-tenant (legacy): -csv and -model load one table/model pair, served
// on the original routes (/estimate, /append, /drift, /models, /healthz,
// /livez, /readyz) with unlabelled metric names — flag-for-flag compatible
// with the pre-multi-tenant server.
//
// Multi-tenant: -tenants tenants.json loads many table/model pairs into one
// process. Each tenant serves under /v1/{name}/... with its own admission
// gate, circuit breaker, lifecycle budgets, and result cache, and its metric
// families carry a tenant="name" label in the shared registry. The legacy
// routes alias the file's default tenant, so existing clients keep working;
// /readyz aggregates readiness across every tenant.
//
// In both modes /estimate answers are served through a per-tenant result
// cache keyed by predicate fingerprint; entries are invalidated by hot-swap,
// stale-flag, or append (-cache-size caps it, negative disables).
//
// With any lifecycle flag set (-refresh-after, -drift-threshold,
// -tvd-threshold, -registry — or their tenants.json fields) the service also
// ingests data online: POST /append takes header-less CSV rows, GET /drift
// reports staleness, GET /models lists registered versions, and a background
// refresh fine-tunes and hot-swaps the model when drift or row-count
// thresholds trip. With -registry the server adopts the registry's active
// version on restart, after the registry self-heals from any crash debris.
//
// The process runs until SIGINT/SIGTERM, then drains: readiness goes false,
// in-flight queries finish on the version they loaded, and an in-progress
// refresh cancels between gradient steps and flushes a final checkpoint.
func cmdServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tenantsPath := fs.String("tenants", "", "multi-tenant config file (JSON); mutually exclusive with -csv/-model")
	csvPath := fs.String("csv", "", "input CSV (for schema + fallback statistics)")
	modelPath := fs.String("model", "model.naru", "trained model path")
	addr := fs.String("addr", "127.0.0.1:8081", "estimation service address (use :0 for a free port)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /traces, /debug/pprof, /healthz on this address")
	samples := fs.Int("samples", 2000, "progressive samples per query")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none); expiring degrades the sample budget")
	fallback := fs.Bool("fallback", false, "answer failed queries from 1D statistics")
	maxInflight := fs.Int("max-inflight", 0, "queries walking at once, each on one core (0 = GOMAXPROCS); excess queries wait for a slot, and past 256 waiting a new one is shed to the fallback")
	targetStderr := fs.Float64("target-stderr", 0, "stop sampling early once the relative standard error reaches this target (0 = always run the full budget)")
	cacheSize := fs.Int("cache-size", 0, "result-cache entries per tenant (0 = default 1024, negative = disable)")
	refreshAfter := fs.Int("refresh-after", 0, "refresh after this many appended rows (0 = only on drift)")
	driftThreshold := fs.Float64("drift-threshold", 0, "mark the model stale when appended rows' mean NLL exceeds the training baseline by this many nats")
	tvdThreshold := fs.Float64("tvd-threshold", 0, "mark the model stale when any column's marginal TV distance exceeds this")
	refreshEpochs := fs.Int("refresh-epochs", 0, "fine-tuning epochs per refresh (0 = default 4)")
	registryDir := fs.String("registry", "", "persist model versions under this directory")
	lcCkpt := fs.String("lifecycle-checkpoint", "", "checkpoint file for interrupted refreshes (resumed on the next refresh)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "trip to fallback-only serving after this many consecutive model-path failures (0 = breaker off)")
	probeInterval := fs.Duration("probe-interval", time.Second, "initial recovery-probe delay after the breaker trips (doubles up to 30x with jitter)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }

	var reg *naru.Metrics
	if *metricsAddr != "" {
		reg = naru.NewMetrics()
	}
	srv := server.New(server.Options{Metrics: reg, Logf: logf})

	switch {
	case *tenantsPath != "":
		if *csvPath != "" {
			return fmt.Errorf("serve: -tenants and -csv are mutually exclusive")
		}
		cfgs, def, err := server.LoadTenantsFile(*tenantsPath)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		for _, tc := range cfgs {
			// Each tenant's families are labelled tenant="name" in the shared
			// registry, so one /metrics endpoint serves the whole fleet.
			tn, err := server.BuildTenant(tc, reg.WithLabel("tenant", tc.Name), logf)
			if err != nil {
				return fmt.Errorf("serve: %w", err)
			}
			if err := srv.Add(tn); err != nil {
				return fmt.Errorf("serve: %w", err)
			}
		}
		if err := srv.SetDefault(def); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	case *csvPath != "":
		// Legacy single-tenant mode: the root (unlabelled) registry keeps the
		// historical metric names, and every legacy route serves this tenant.
		tc := server.TenantConfig{
			Name:                "default",
			CSV:                 *csvPath,
			Model:               *modelPath,
			Samples:             *samples,
			Timeout:             server.Duration(*timeout),
			Fallback:            *fallback,
			TargetStdErr:        *targetStderr,
			MaxInFlight:         *maxInflight,
			CacheSize:           *cacheSize,
			RefreshAfter:        *refreshAfter,
			DriftThreshold:      *driftThreshold,
			TVDThreshold:        *tvdThreshold,
			RefreshEpochs:       *refreshEpochs,
			RegistryDir:         *registryDir,
			LifecycleCheckpoint: *lcCkpt,
			BreakerThreshold:    *breakerThreshold,
			ProbeInterval:       server.Duration(*probeInterval),
		}
		tn, err := server.BuildTenant(tc, reg, logf)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if err := srv.Add(tn); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	default:
		return fmt.Errorf("serve: -csv or -tenants is required")
	}

	// refreshes inherit this context: SIGINT/SIGTERM cancels them between
	// gradient steps and srv.Close waits for their final checkpoint flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Start(ctx)
	defer srv.Close()

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", naru.MetricsHandler(reg))
		srv.RegisterHealth(mux)
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		msrv := newHTTPServer(mux)
		go func() { _ = msrv.Serve(mln) }()
		defer msrv.Close()
		fmt.Fprintf(stderr, "metrics on http://%s/metrics\n", mln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	hsrv := newHTTPServer(srv.Handler())
	names := srv.Names()
	if len(names) > 1 {
		fmt.Fprintf(stdout, "serving tenants [%s] on http://%s/v1/{tenant}/estimate\n",
			strings.Join(names, " "), ln.Addr())
	} else {
		fmt.Fprintf(stdout, "serving on http://%s/estimate\n", ln.Addr())
	}
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: readiness goes false first (every tenant's state machine enters
	// its terminal state and probe loops exit), in-flight queries finish on
	// the version they loaded, then the deferred srv.Close waits for any
	// cancelled refresh to checkpoint and exit.
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hsrv.Shutdown(shutCtx)
}
