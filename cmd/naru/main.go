// Command naru trains, saves, and queries Naru estimators from the shell.
//
// Usage:
//
//	naru train -csv data.csv -out model.naru [-epochs N] [-hidden 128,128]
//	naru estimate -csv data.csv -model model.naru -where "col<=value AND ..."
//	naru entropy -csv data.csv -model model.naru
//
// The -where grammar accepts conjunctions of <col> <op> <literal> with ops
// =, !=, <, <=, >, >=; literals are matched against the column's observed
// domain (numeric or string). The true selectivity is printed alongside the
// estimate when the CSV is supplied, making the tool a self-contained demo.
//
// Resilience controls: `train -checkpoint ckpt [-checkpoint-every N]
// [-resume]` checkpoints training atomically and resumes bit-identically
// after a crash; `estimate -timeout D` bounds each query's latency by
// degrading its sample budget (anytime estimates, tagged in the output), and
// `-fallback` answers failed queries from 1D statistics instead of erroring.
//
// Training performance: `train -train-workers W` shards each batch's
// gradient across W deterministic data-parallel workers (the count is
// recorded in checkpoints so resumed runs stay bit-identical), and
// `-stop-after N` halts after N gradient steps without saving a model, the
// scripted interruption point for the interrupt/resume check.
//
// Multi-table joins: `train -join spec.json` trains one NeuroCard-style model
// over the join schema described by the spec (see join.go), and
// `estimate -join spec.json -model m` answers conjunctions spanning several
// tables as cardinalities of the spanned sub-join.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	naru "repro"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/table"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it dispatches the subcommand, writes
// human output to stdout and errors to stderr, and returns the process exit
// code (0 ok, 1 runtime error, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	// Chaos harness hook: NARU_FAULTS arms named fault-injection sites for
	// this process ("site=mode[:arg][@after[xcount]]", comma-separated; see
	// `naru faults` for the site list). Unset means zero injection — the
	// sites stay dormant behind one atomic load.
	if spec := os.Getenv("NARU_FAULTS"); spec != "" {
		if err := faultinject.ArmString(spec); err != nil {
			fmt.Fprintln(stderr, "naru: NARU_FAULTS:", err)
			return 2
		}
		fmt.Fprintf(stderr, "fault injection armed: %s\n", spec)
	}
	var err error
	switch args[0] {
	case "train":
		err = cmdTrain(args[1:], stdout, stderr)
	case "estimate":
		err = cmdEstimate(args[1:], stdout, stderr)
	case "serve":
		err = cmdServe(args[1:], stdout, stderr)
	case "entropy":
		err = cmdEntropy(args[1:], stdout, stderr)
	case "faults":
		err = cmdFaults(stdout)
	default:
		usage(stderr)
		return 2
	}
	if err != nil {
		if err == flag.ErrHelp {
			return 2
		}
		fmt.Fprintln(stderr, "naru:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  naru train    -csv data.csv -out model.naru [-epochs N] [-hidden 128,128,128,128] [-samples S]
                [-batch N] [-train-workers W] [-stop-after N]
                [-checkpoint train.ckpt] [-checkpoint-every N] [-resume] [-metrics-addr :8080]
  naru train    -join spec.json -out join.naru [-epochs N] [-hidden 64,64] [-seed S]
                (multi-table: one model over the join schema; see below)
  naru estimate -csv data.csv -model model.naru -where "a<=5 AND b=x"
  naru estimate -csv data.csv -model model.naru -queries workload.txt [-workers N]
                [-timeout 50ms] [-fallback] [-metrics-addr :8080]
  naru estimate -join spec.json -model join.naru -where "t1.a <= 5 AND t2.b = x"
  naru serve    -csv data.csv -model model.naru -addr :8081 [-metrics-addr :8080]
                [-samples S] [-timeout 50ms] [-fallback] [-cache-size N] [-max-inflight N]
                [-refresh-after N] [-drift-threshold NATS] [-tvd-threshold D]
                [-refresh-epochs N] [-registry DIR] [-lifecycle-checkpoint ckpt]
                [-breaker-threshold N] [-probe-interval D]
  naru serve    -tenants tenants.json -addr :8081 [-metrics-addr :8080]
                (multi-tenant: many tables/models in one process)
  naru entropy  -csv data.csv -model model.naru
  naru faults   (list fault-injection site names for NARU_FAULTS)

The -metrics-addr endpoint exposes /metrics (Prometheus), /metrics.json,
/traces, /debug/pprof/, and /healthz for whatever the command is doing.

Multi-tenant serve: -tenants tenants.json hosts many table/model pairs, each
routed under /v1/<name>/estimate|append|drift|models with its own admission
gate, breaker, lifecycle budgets, and result cache; metric families carry a
tenant="name" label on the shared scrape, legacy routes alias the file's
default tenant, and /readyz aggregates every tenant. Estimates are served
through a per-tenant result cache invalidated by hot-swap, stale-flag, or
append (-cache-size / "cache_size": 0 = 1024 entries, negative disables).

Serve lifecycle: with any of -refresh-after/-drift-threshold/-tvd-threshold/
-registry set, POST /append ingests header-less CSV rows online, GET /drift
and /models report staleness and registered versions, and a background
refresh fine-tunes and hot-swaps the model when thresholds trip. SIGTERM
drains in-flight queries and checkpoints an in-progress refresh.

Serve resilience: -breaker-threshold N arms a circuit breaker that trips to
fallback-only serving after N consecutive model-path failures and probes its
way back on -probe-interval backoff; /livez and /readyz split liveness from
readiness. NARU_FAULTS="site=mode[:arg][@after[xcount]],..." injects faults
at the named sites (modes: error, delay:D, panic, exit, partial:N) for chaos
testing — see 'naru faults' for sites.

Join estimation: -join spec.json names the base tables (header-ed CSVs) and
the acyclic equi-join edges between them ({"tables":[{"name":...,"csv":...}],
"edges":[{"parent":...,"child":...,"parent_col":...,"child_col":...}]}); the
first table is the join root. Training streams unbiased join tuples — the
join is never materialized — and estimates answer WHERE conjunctions over
table-qualified columns as cardinalities of the spanned sub-join, printed
with the exact nested-loop truth.`)
}

// cmdFaults lists the registered fault-injection site names, one per line —
// the vocabulary NARU_FAULTS accepts and the chaos harness's kill matrix.
func cmdFaults(stdout io.Writer) error {
	for _, s := range faultinject.Sites() {
		fmt.Fprintln(stdout, s)
	}
	return nil
}

// startMetrics starts the observability endpoint when addr is non-empty and
// returns the registry to attach (nil when disabled). The bound address is
// announced on stderr so stdout stays diffable — estimates must be
// byte-identical with and without -metrics-addr.
func startMetrics(addr string, stderr io.Writer) (*naru.Metrics, func(), error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	m := naru.NewMetrics()
	bound, shutdown, err := naru.ServeMetrics(addr, m)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	fmt.Fprintf(stderr, "metrics on http://%s/metrics\n", bound)
	return m, func() { _ = shutdown() }, nil
}

// loadTable opens and dictionary-encodes the CSV, wrapping failures with the
// offending path.
func loadTable(path string) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csv file: %w", err)
	}
	defer f.Close()
	t, err := naru.LoadCSV(f, path)
	if err != nil {
		return nil, fmt.Errorf("csv file %q: %w", path, err)
	}
	return t, nil
}

// openModel loads a saved estimator, distinguishing a missing model file
// from a present-but-corrupt one: the two need different operator responses
// (fix the path vs. retrain or restore the artifact).
func openModel(path string, cfg naru.Config) (*naru.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model file: %w", err)
	}
	defer f.Close()
	est, err := naru.LoadEstimator(f, cfg)
	if err != nil {
		return nil, fmt.Errorf("model file %q is corrupt or not a naru model: %w", path, err)
	}
	return est, nil
}

func cmdTrain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csvPath := fs.String("csv", "", "input CSV with header")
	outPath := fs.String("out", "model.naru", "output model path")
	epochs := fs.Int("epochs", 10, "training epochs")
	hidden := fs.String("hidden", "128,128,128,128", "hidden layer widths")
	samples := fs.Int("samples", 2000, "progressive samples per query")
	seed := fs.Int64("seed", 1, "random seed")
	ckpt := fs.String("checkpoint", "", "checkpoint file (enables periodic atomic checkpoints)")
	ckptEvery := fs.Int("checkpoint-every", 100, "steps between checkpoints")
	resume := fs.Bool("resume", false, "resume from -checkpoint if it exists")
	batchSize := fs.Int("batch", 0, "tuples per gradient step (0 = default 512)")
	trainWorkers := fs.Int("train-workers", 0, "data-parallel gradient shards per step (0/1 = sequential; recorded in checkpoints)")
	stopAfter := fs.Int("stop-after", 0, "stop after N gradient steps without saving a model (for scripted interrupt/resume testing)")
	joinSpec := fs.String("join", "", "join spec JSON: train one model over the multi-table join instead of -csv")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /traces, /debug/pprof on this address while training")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *joinSpec != "" {
		hiddenSizes, err := parseInts(*hidden)
		if err != nil {
			return err
		}
		metrics, stopMetrics, err := startMetrics(*metricsAddr, stderr)
		if err != nil {
			return err
		}
		defer stopMetrics()
		jcfg := joinConfig(hiddenSizes, *samples, *epochs, *batchSize, *trainWorkers, *seed, metrics)
		return trainJoin(*joinSpec, *outPath, jcfg, stdout)
	}
	if *csvPath == "" {
		return fmt.Errorf("train: -csv is required")
	}
	if *resume && *ckpt == "" {
		return fmt.Errorf("train: -resume requires -checkpoint")
	}
	t, err := loadTable(*csvPath)
	if err != nil {
		return err
	}
	cfg := naru.DefaultConfig()
	cfg.Epochs = *epochs
	cfg.Samples = *samples
	cfg.Seed = *seed
	cfg.HiddenSizes, err = parseInts(*hidden)
	if err != nil {
		return err
	}
	cfg.CheckpointPath = *ckpt
	cfg.CheckpointEvery = *ckptEvery
	cfg.Resume = *resume
	cfg.BatchSize = *batchSize
	cfg.TrainWorkers = *trainWorkers
	cfg.StopAfterSteps = *stopAfter
	metrics, stopMetrics, err := startMetrics(*metricsAddr, stderr)
	if err != nil {
		return err
	}
	defer stopMetrics()
	cfg.Metrics = metrics
	fmt.Fprintf(stdout, "training on %q: %d rows × %d cols (joint %.3g)\n",
		t.Name, t.NumRows(), t.NumCols(), t.JointSize())
	est, err := naru.Build(t, cfg)
	if errors.Is(err, naru.ErrTrainingStopped) {
		// The scripted interruption point: no model is saved, but the
		// checkpoint (when configured) lets a -resume run pick up exactly
		// where this one stopped.
		fmt.Fprintf(stdout, "training stopped after %d steps", *stopAfter)
		if *ckpt != "" {
			fmt.Fprintf(stdout, "; checkpoint at %s", *ckpt)
		}
		fmt.Fprintln(stdout)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "model: %.2f MB, entropy gap %.2f bits\n",
		float64(est.SizeBytes())/1e6, est.EntropyGapBits(t))
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := est.Save(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "saved to %s\n", *outPath)
	return nil
}

func cmdEstimate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("estimate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csvPath := fs.String("csv", "", "input CSV (for schema + ground truth)")
	modelPath := fs.String("model", "model.naru", "trained model path")
	where := fs.String("where", "", "conjunction, e.g. \"a<=5 AND b=x\"")
	queriesPath := fs.String("queries", "", "file of WHERE conjunctions, one per line")
	workers := fs.Int("workers", 0, "concurrent query workers for -queries (0 = GOMAXPROCS)")
	samples := fs.Int("samples", 2000, "progressive samples")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none); expiring degrades the sample budget")
	fallback := fs.Bool("fallback", false, "answer failed queries from 1D statistics instead of erroring")
	joinSpec := fs.String("join", "", "join spec JSON: estimate over the multi-table join instead of -csv")
	seed := fs.Int64("seed", 1, "random seed (join estimates)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /traces, /debug/pprof on this address while estimating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *joinSpec != "" {
		if (*where == "") == (*queriesPath == "") {
			return fmt.Errorf("estimate: exactly one of -where / -queries is required")
		}
		metrics, stopMetrics, err := startMetrics(*metricsAddr, stderr)
		if err != nil {
			return err
		}
		defer stopMetrics()
		jcfg := joinConfig(nil, *samples, 0, 0, 0, *seed, metrics)
		return estimateJoin(*joinSpec, *modelPath, *where, *queriesPath, jcfg, stdout)
	}
	if *csvPath == "" || (*where == "") == (*queriesPath == "") {
		return fmt.Errorf("estimate: -csv and exactly one of -where / -queries are required")
	}
	t, err := loadTable(*csvPath)
	if err != nil {
		return err
	}
	cfg := naru.DefaultConfig()
	cfg.Samples = *samples
	metrics, stopMetrics, err := startMetrics(*metricsAddr, stderr)
	if err != nil {
		return err
	}
	defer stopMetrics()
	cfg.Metrics = metrics
	est, err := openModel(*modelPath, cfg)
	if err != nil {
		return err
	}
	opts := naru.ServeOptions{Workers: *workers, Deadline: *timeout}
	if *fallback {
		opts.Fallback = naru.FallbackObserved(t, metrics)
	}
	if *queriesPath != "" {
		return estimateFile(est, t, *queriesPath, opts, stdout)
	}
	q, err := query.ParseWhere(*where, t)
	if err != nil {
		return err
	}
	opts.Workers = 1
	results, err := est.SelectivityBatchCtx(context.Background(), []naru.Query{q}, opts)
	if err != nil {
		return err
	}
	return printServed(q, results[0], t, stdout)
}

// printServed reports one served estimate, its card the printed sel × the
// table's rows, with its provenance when the model path did not fully
// answer.
func printServed(q naru.Query, r naru.Result, t *table.Table, stdout io.Writer) error {
	if r.Source == naru.SourceFailed {
		return fmt.Errorf("estimate: query failed: %w", r.Err)
	}
	truth, err := naru.TrueSelectivity(q, t)
	if err != nil {
		return err
	}
	rows := float64(t.NumRows())
	fmt.Fprintf(stdout, "query: %s\n", q.String(t))
	fmt.Fprintf(stdout, "estimate: sel=%.6g card=%.1f\n", r.Sel, r.Sel*rows)
	if r.Source != naru.SourceModel {
		fmt.Fprintf(stdout, "source:   %s (samples=%d stderr=%.3g)\n", r.Source, r.Samples, r.StdErr)
	}
	fmt.Fprintf(stdout, "truth:    sel=%.6g card=%d\n", truth, int64(truth*rows))
	return nil
}

// parseWorkload lowers a workload file (one WHERE conjunction per line,
// blank lines and #-comments skipped) into queries, reporting the first
// malformed line by number and text.
func parseWorkload(data []byte, path string, t *table.Table) (qs []naru.Query, lines []string, err error) {
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := query.ParseWhere(line, t)
		if err != nil {
			return nil, nil, fmt.Errorf("workload %s line %d: %q: %w", path, n+1, line, err)
		}
		qs = append(qs, q)
		lines = append(lines, line)
	}
	if len(qs) == 0 {
		return nil, nil, fmt.Errorf("workload %s: no queries", path)
	}
	return qs, lines, nil
}

// estimateFile serves a whole workload file through the fault-tolerant batch
// path and reports per-query estimates (with provenance tags for anything
// that did not complete on the model path) plus aggregate throughput.
func estimateFile(est *naru.Estimator, t *table.Table, path string, opts naru.ServeOptions, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("workload file: %w", err)
	}
	qs, lines, err := parseWorkload(data, path, t)
	if err != nil {
		return err
	}
	start := time.Now()
	results, err := est.SelectivityBatchCtx(context.Background(), qs, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	rows := float64(t.NumRows())
	var degraded, fellBack, failed int
	for i, r := range results {
		truth, err := naru.TrueSelectivity(qs[i], t)
		if err != nil {
			return err
		}
		tag := ""
		switch r.Source {
		case naru.SourceDegraded:
			degraded++
			tag = fmt.Sprintf("  [degraded: %d samples]", r.Samples)
		case naru.SourceFallback:
			fellBack++
			tag = "  [fallback]"
		case naru.SourceFailed:
			failed++
			tag = fmt.Sprintf("  [FAILED: %v]", r.Err)
		}
		fmt.Fprintf(stdout, "%-60s est=%.6g true=%.6g card=%.1f%s\n", lines[i], r.Sel, truth, r.Sel*rows, tag)
	}
	fmt.Fprintf(stdout, "%d queries in %v (%.1f queries/sec, workers=%d)\n",
		len(qs), elapsed.Round(time.Millisecond),
		float64(len(qs))/elapsed.Seconds(), opts.Workers)
	if degraded+fellBack+failed > 0 {
		fmt.Fprintf(stdout, "degraded=%d fallback=%d failed=%d\n", degraded, fellBack, failed)
	}
	if failed > 0 {
		return fmt.Errorf("estimate: %d of %d queries failed", failed, len(qs))
	}
	return nil
}

func cmdEntropy(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("entropy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csvPath := fs.String("csv", "", "input CSV")
	modelPath := fs.String("model", "model.naru", "trained model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvPath == "" {
		return fmt.Errorf("entropy: -csv is required")
	}
	t, err := loadTable(*csvPath)
	if err != nil {
		return err
	}
	est, err := openModel(*modelPath, naru.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "entropy gap vs %q: %.3f bits\n", t.Name, est.EntropyGapBits(t))
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad hidden sizes %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}
