package bench

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/tensor"
)

// This file benchmarks the inference fast path: delta-forward sampling,
// packed GEMM kernels, and concurrent serving, against the reference
// full-forward sequential estimator. Results are printed as a table and
// written to BenchOut in the github-action-benchmark "customSmallerIsBetter /
// customBiggerIsBetter" JSON shape: an array of {name, value, unit, extra}.

// BenchEntry is one github-action-benchmark datum.
type BenchEntry struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

// fullForward hides a model's BeginSampling (and ForkModel) methods, so the
// estimator serves it sequentially with a full forward pass per column — the
// seed's behavior, kept as the performance and correctness reference.
type fullForward struct{ core.Model }

// Inference runs the DMV workload through four serving configurations —
// reference full-forward sequential, fast-path sequential, and the fused
// batch at one worker and at full width — and reports throughput, latency
// quantiles, and the agreement between fast and reference estimates.
// Client-observed serving latency under an offered load is perfbench's job
// (its dmv-open workload), not this one's.
func Inference(out io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	if cfg.BenchOut == "" {
		cfg.BenchOut = "BENCH_inference.json"
	}
	start := time.Now()
	t := datagen.DMV(cfg.DMVRows, cfg.Seed)
	progress(out, cfg.Quiet, "inference: generated %d rows in %v", t.NumRows(), time.Since(start).Round(time.Millisecond))
	w := mustWorkload(t, query.DefaultGeneratorConfig(), cfg.Seed+100, cfg.NumQueries)
	progress(out, cfg.Quiet, "inference: %d queries labeled", len(w.Queries))

	trainStart := time.Now()
	model := TrainNaru(t, DMVModelConfig(cfg.Seed), cfg.Epochs, cfg.Seed+200)
	progress(out, cfg.Quiet, "inference: Naru trained in %v", time.Since(trainStart).Round(time.Millisecond))

	const samples = 1000
	qseed := cfg.Seed + 6

	// Reference: full forward per column, one query at a time.
	ref := core.NewEstimator(fullForward{core.Model(model)}, samples, qseed)
	refRes := RunWorkload(ref, w)
	refTotal := sumLatency(refRes.Latencies)

	// Fast path, sequential: delta-forward + packed kernels, same seeds.
	seq := core.NewEstimator(model, samples, qseed)
	seqRes := RunWorkload(seq, w)
	seqTotal := sumLatency(seqRes.Latencies)

	// Fused batch on a fresh estimator (same seeds again, so the fused walk
	// must reproduce the sequential fast-path answers bitwise). Workers is
	// pinned to 1 so this row measures the block walk itself — a query's
	// chunks of one wave in one tall block, with no thread parallelism — next
	// to the sequential row's one CondBatch block per chunk. Telemetry, when
	// enabled, watches this configuration — the mismatch check below doubles
	// as proof that observing it is free of perturbation. The Mallocs delta
	// around the run prices the scheduler's allocation overhead per query.
	batch := core.NewEstimator(model, samples, qseed)
	batch.SetObserver(cfg.Obs)
	reqs := core.Requests(w.Regions)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fusedStart := time.Now()
	fusedRes := batch.EstimateFused(context.Background(), reqs, core.ServeOptions{Workers: 1})
	batchTotal := time.Since(fusedStart)
	runtime.ReadMemStats(&ms1)
	batchEsts := make([]float64, len(fusedRes))
	for i, r := range fusedRes {
		batchEsts[i] = r.Sel
	}

	mismatches := 0
	for i := range seqRes.Estimates {
		if batchEsts[i] != seqRes.Estimates[i] {
			mismatches++
		}
	}
	maxRel := maxRelDiff(seqRes.Estimates, refRes.Estimates)
	allocsPerQuery := float64(ms1.Mallocs-ms0.Mallocs) / float64(len(w.Regions))

	// Parallel fused: the same scheduler with its full worker budget —
	// queries walked concurrently, one per goroutine, on pooled replicas.
	// Results must still match the sequential fast path bitwise (worker
	// count is a pure throughput knob).
	parWorkers := cfg.Workers
	if parWorkers <= 0 {
		parWorkers = runtime.NumCPU()
	}
	par := core.NewEstimator(model, samples, qseed)
	var pm0, pm1 runtime.MemStats
	runtime.ReadMemStats(&pm0)
	parStart := time.Now()
	parRes := par.EstimateFused(context.Background(), reqs, core.ServeOptions{Workers: parWorkers})
	parTotal := time.Since(parStart)
	runtime.ReadMemStats(&pm1)
	parMismatches := 0
	for i := range seqRes.Estimates {
		if parRes[i].Sel != seqRes.Estimates[i] {
			parMismatches++
		}
	}
	parAllocsPerQuery := float64(pm1.Mallocs-pm0.Mallocs) / float64(len(w.Regions))

	nq := float64(len(w.Regions))
	refQPS := nq / refTotal.Seconds()
	seqQPS := nq / seqTotal.Seconds()
	batchQPS := nq / batchTotal.Seconds()
	parQPS := nq / parTotal.Seconds()
	p50, p99, pmax := LatencySummary(seqRes.Latencies)
	refErr := metrics.Summarize(refRes.Errors(w))
	seqErr := metrics.Summarize(seqRes.Errors(w))

	fmt.Fprintf(out, "\nInference fast path (DMV %d rows, %d queries, Naru-%d)\n",
		t.NumRows(), len(w.Regions), samples)
	fmt.Fprintf(out, "%-28s %12s %14s\n", "configuration", "queries/sec", "total")
	fmt.Fprintf(out, "%-28s %12.2f %14v\n", "reference (full forward)", refQPS, refTotal.Round(time.Millisecond))
	fmt.Fprintf(out, "%-28s %12.2f %14v\n", "fast path, sequential", seqQPS, seqTotal.Round(time.Millisecond))
	fmt.Fprintf(out, "%-28s %12.2f %14v\n", "fast path, fused batch", batchQPS, batchTotal.Round(time.Millisecond))
	fmt.Fprintf(out, "%-28s %12.2f %14v\n", fmt.Sprintf("fused parallel, W=%d", parWorkers), parQPS, parTotal.Round(time.Millisecond))
	fmt.Fprintf(out, "speedup: sequential %.2fx, fused batch %.2fx, fused parallel %.2fx\n",
		seqQPS/refQPS, batchQPS/refQPS, parQPS/refQPS)
	fmt.Fprintf(out, "fast-path latency ms: p50=%.2f p99=%.2f max=%.2f\n", p50, p99, pmax)
	fmt.Fprintf(out, "fused allocations: %.0f allocs/query (parallel %.0f)\n", allocsPerQuery, parAllocsPerQuery)
	fmt.Fprintf(out, "fused batch vs sequential fast path: %d/%d mismatched estimates (must be 0)\n",
		mismatches, len(w.Regions))
	fmt.Fprintf(out, "fused parallel vs sequential fast path: %d/%d mismatched estimates (must be 0)\n",
		parMismatches, len(w.Regions))
	fmt.Fprintf(out, "fast vs reference estimates: max relative diff %.3g (MC re-draws at float-identical boundaries)\n", maxRel)
	fmt.Fprintf(out, "q-error median/p99: reference %.3f/%.3f, fast %.3f/%.3f\n",
		refErr.Median, refErr.P99, seqErr.Median, seqErr.P99)
	parEsts := make([]float64, len(parRes))
	for i, r := range parRes {
		parEsts[i] = r.Sel
	}
	fmt.Fprintf(out, "inference digest: %016x\n",
		estimateDigest(refRes.Estimates, seqRes.Estimates, batchEsts, parEsts))
	fmt.Fprintf(out, "gemm kernel: %s\n", tensor.KernelPath())

	entries := []BenchEntry{
		{Name: "dmv_queries_per_sec_reference", Value: refQPS, Unit: "queries/sec",
			Extra: fmt.Sprintf("full forward, sequential, S=%d", samples)},
		{Name: "dmv_queries_per_sec_sequential", Value: seqQPS, Unit: "queries/sec",
			Extra: "delta-forward + packed GEMM, sequential"},
		{Name: "dmv_queries_per_sec_batch", Value: batchQPS, Unit: "queries/sec",
			Extra: "fused walk (EstimateFused), one worker, whole workload in one call"},
		{Name: "dmv_queries_per_sec_fused_parallel", Value: parQPS, Unit: "queries/sec",
			Extra: fmt.Sprintf("fused walk, query parallelism, workers=%d", parWorkers)},
		{Name: "dmv_fused_parallel_mismatches", Value: float64(parMismatches), Unit: "queries",
			Extra: fmt.Sprintf("parallel fused (workers=%d) vs sequential fast path, bitwise", parWorkers)},
		{Name: "dmv_fused_parallel_allocs_per_query", Value: parAllocsPerQuery, Unit: "allocs/query",
			Extra: fmt.Sprintf("Mallocs delta around the parallel fused run, workers=%d", parWorkers)},
		{Name: "dmv_latency_p50", Value: p50, Unit: "ms", Extra: "fast path, sequential"},
		{Name: "dmv_latency_p99", Value: p99, Unit: "ms", Extra: "fast path, sequential"},
		{Name: "dmv_batch_mismatches", Value: float64(mismatches), Unit: "queries",
			Extra: "fused batch vs sequential fast path, bitwise"},
		{Name: "dmv_max_rel_diff_vs_reference", Value: maxRel, Unit: "fraction",
			Extra: "fast path vs full forward selectivities"},
		{Name: "dmv_batch_allocs_per_query", Value: allocsPerQuery, Unit: "allocs/query",
			Extra: "Mallocs delta around the fused batch run"},
	}
	entries = append(entries, obsEntries(cfg.Obs, out)...)
	if err := writeBenchJSON(cfg.BenchOut, entries); err != nil {
		fmt.Fprintf(out, "inference: writing %s: %v\n", cfg.BenchOut, err)
		return
	}
	fmt.Fprintf(out, "wrote %s\n", cfg.BenchOut)
}

// obsEntries folds the observability registry's view of the batch run into
// the benchmark JSON: the per-query latency histogram quantiles (the numbers
// an operator would scrape from /metrics) and the path-counter breakdown.
// Returns nil when telemetry is disabled.
func obsEntries(reg *obs.Registry, out io.Writer) []BenchEntry {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	h, ok := snap.Histograms["naru_query_latency_seconds"]
	if !ok || h.Count == 0 {
		return nil
	}
	paths := fmt.Sprintf("enum=%d sample=%d empty=%d",
		snap.Counters["naru_query_path_enum_total"],
		snap.Counters["naru_query_path_sample_total"],
		snap.Counters["naru_query_path_empty_total"])
	fmt.Fprintf(out, "observed latency ms (histogram): p50=%.2f p99=%.2f over %d queries (%s)\n",
		h.Quantile(0.50)*1e3, h.Quantile(0.99)*1e3, h.Count, paths)
	return []BenchEntry{
		{Name: "dmv_obs_latency_p50", Value: h.Quantile(0.50) * 1e3, Unit: "ms",
			Extra: "naru_query_latency_seconds histogram, batch fast path"},
		{Name: "dmv_obs_latency_p99", Value: h.Quantile(0.99) * 1e3, Unit: "ms",
			Extra: "naru_query_latency_seconds histogram, batch fast path"},
		{Name: "dmv_obs_queries_observed", Value: float64(snap.Counters["naru_queries_total"]), Unit: "queries",
			Extra: paths},
	}
}

// writeBenchJSON writes entries to path, appending to every entry's extra
// the machine it ran on: the GEMM kernel path (tensor.KernelPath), the CPU
// count and GOMAXPROCS. A number without them cannot be compared with one
// from another box.
func writeBenchJSON(path string, entries []BenchEntry) error {
	prov := fmt.Sprintf("kernel=%s numcpu=%d gomaxprocs=%d", tensor.KernelPath(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for i := range entries {
		if entries[i].Extra != "" {
			entries[i].Extra += "; "
		}
		entries[i].Extra += prov
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sumLatency(lats []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range lats {
		total += d
	}
	return total
}

// estimateDigest is an FNV-64a hash over the bits of every estimate, taking
// each slice in turn in query order (the join digest's encoding). Two runs
// print the same digest exactly when every estimate matched bit for bit.
func estimateDigest(stages ...[]float64) uint64 {
	h := fnv.New64a()
	var bits [8]byte
	for _, ests := range stages {
		for _, e := range ests {
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(e))
			h.Write(bits[:])
		}
	}
	return h.Sum64()
}

// maxRelDiff returns max_i |a_i - b_i| / max(|b_i|, floor) with a small floor
// so empty-region zeros do not blow up the ratio.
func maxRelDiff(a, b []float64) float64 {
	const floor = 1e-9
	var mx float64
	for i := range a {
		den := math.Abs(b[i])
		if den < floor {
			den = floor
		}
		if d := math.Abs(a[i]-b[i]) / den; d > mx {
			mx = d
		}
	}
	return mx
}
