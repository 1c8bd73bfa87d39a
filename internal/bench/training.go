package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/made"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/table"
	"repro/internal/tensor"
)

// This file benchmarks the training fast path — batched decode losses, the
// FMA/packed backward kernels, and deterministic data-parallel gradient
// sharding — against the pre-fast-path sequential baseline. Three
// configurations train the DMV model from the same seed:
//
//	baseline : per-row scalar losses (TrainStepReference) with the legacy
//	           kernel configuration (tensor.SetAccel(false)), i.e. what a
//	           training step cost before this work;
//	batched  : the batched step on the accelerated kernels, Workers=1;
//	sharded  : the batched step under data-parallel gradient sharding.
//
// All three see identical batch schedules (same Seed), so their per-epoch
// NLLs are directly comparable: batched and sharded must match the baseline
// to float noise while moving many times more rows per second.

// referenceTrainer routes TrainStep through the retained pre-batching
// implementation so core.TrainRun drives the baseline unchanged.
type referenceTrainer struct{ *made.Model }

func (r referenceTrainer) TrainStep(codes []int32, n int, opt *nn.Adam) float64 {
	return r.Model.TrainStepReference(codes, n, opt)
}

// trainStats is one configuration's measured run.
type trainStats struct {
	history    []float64
	stepDurs   []time.Duration
	total      time.Duration
	rowsPerSec float64
}

// timedTrain runs core.TrainRun while timing every gradient step (the OnStep
// hook fires after each one, so successive hook times bracket a step
// including its overlapped batch gather).
func timedTrain(m core.Trainable, t *table.Table, tc core.TrainConfig) (trainStats, error) {
	var s trainStats
	last := time.Now()
	tc.OnStep = func(step int, loss float64) error {
		now := time.Now()
		s.stepDurs = append(s.stepDurs, now.Sub(last))
		last = now
		return nil
	}
	start := time.Now()
	hist, err := core.TrainRun(m, t, tc)
	if err != nil {
		return s, err
	}
	s.history = hist
	s.total = time.Since(start)
	rows := float64(len(s.stepDurs) * tc.BatchSize)
	if secs := s.total.Seconds(); secs > 0 {
		s.rowsPerSec = rows / secs
	}
	return s, nil
}

// stepQuantiles returns step-latency quantiles in milliseconds.
func stepQuantiles(durs []time.Duration) (p50, p99 float64) {
	ms := make([]float64, len(durs))
	for i, d := range durs {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return metrics.Quantile(ms, 0.5), metrics.Quantile(ms, 0.99)
}

// Training measures the three training configurations on the synthetic DMV
// table and writes the github-action-benchmark JSON to BenchOut
// (BENCH_training.json by default).
func Training(out io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	if cfg.BenchOut == "" {
		cfg.BenchOut = "BENCH_training.json"
	}
	// The NLL trajectories only need a few epochs to compare; the baseline is
	// slow enough that one epoch measures its throughput honestly.
	epochs := minInt(cfg.Epochs, 3)
	shardW := maxInt(2, cfg.Workers)

	start := time.Now()
	t := datagen.DMV(cfg.DMVRows, cfg.Seed)
	progress(out, cfg.Quiet, "training: generated %d rows in %v", t.NumRows(), time.Since(start).Round(time.Millisecond))

	const batch = 512
	tc := core.TrainConfig{Epochs: epochs, BatchSize: batch, LR: 2e-3, Seed: cfg.Seed + 200, Obs: cfg.Obs}
	newModel := func() *made.Model { return made.New(t.DomainSizes(), DMVModelConfig(cfg.Seed)) }

	// Baseline: legacy kernels + per-row reference step, one epoch.
	baseTC := tc
	baseTC.Epochs = 1
	prevAccel := tensor.SetAccel(false)
	base, err := timedTrain(referenceTrainer{newModel()}, t, baseTC)
	tensor.SetAccel(prevAccel)
	if err != nil {
		fmt.Fprintf(out, "training: baseline run: %v\n", err)
		return
	}
	progress(out, cfg.Quiet, "training: baseline epoch in %v", base.total.Round(time.Millisecond))

	// Batched fast path, sequential.
	seqTC := tc
	seqTC.Workers = 1
	seqModel := newModel()
	seq, err := timedTrain(seqModel, t, seqTC)
	if err != nil {
		fmt.Fprintf(out, "training: batched run: %v\n", err)
		return
	}
	progress(out, cfg.Quiet, "training: batched %d epochs in %v", epochs, seq.total.Round(time.Millisecond))

	// Batched fast path under data-parallel sharding.
	shTC := tc
	shTC.Workers = shardW
	shModel := newModel()
	sh, err := timedTrain(shModel, t, shTC)
	if err != nil {
		fmt.Fprintf(out, "training: sharded run: %v\n", err)
		return
	}
	progress(out, cfg.Quiet, "training: sharded (W=%d) %d epochs in %v", shardW, epochs, sh.total.Round(time.Millisecond))

	seqP50, seqP99 := stepQuantiles(seq.stepDurs)
	shP50, shP99 := stepQuantiles(sh.stepDurs)

	// Epoch NLLs under the same batch schedule: the fast paths must track the
	// baseline's first epoch and each other at every epoch.
	var nllGap float64
	for i := range seq.history {
		if i < len(sh.history) {
			if rel := math.Abs(sh.history[i]-seq.history[i]) / math.Abs(seq.history[i]); rel > nllGap {
				nllGap = rel
			}
		}
	}
	baseGap := math.Abs(seq.history[0]-base.history[0]) / math.Abs(base.history[0])

	fmt.Fprintf(out, "\nTraining fast path (DMV %d rows, batch %d, %d epochs, shard workers=%d)\n",
		t.NumRows(), batch, epochs, shardW)
	fmt.Fprintf(out, "%-34s %12s %10s %10s %12s\n", "configuration", "rows/sec", "p50 ms", "p99 ms", "epoch-1 NLL")
	bp50, bp99 := stepQuantiles(base.stepDurs)
	fmt.Fprintf(out, "%-34s %12.0f %10.2f %10.2f %12.4f\n", "baseline (scalar, legacy kernels)", base.rowsPerSec, bp50, bp99, base.history[0])
	fmt.Fprintf(out, "%-34s %12.0f %10.2f %10.2f %12.4f\n", "batched (fast kernels, W=1)", seq.rowsPerSec, seqP50, seqP99, seq.history[0])
	fmt.Fprintf(out, "%-34s %12.0f %10.2f %10.2f %12.4f\n", fmt.Sprintf("sharded (fast kernels, W=%d)", shardW), sh.rowsPerSec, shP50, shP99, sh.history[0])
	fmt.Fprintf(out, "speedup vs baseline: batched %.2fx, sharded %.2fx\n",
		seq.rowsPerSec/base.rowsPerSec, sh.rowsPerSec/base.rowsPerSec)
	fmt.Fprintf(out, "epoch NLLs: batched %v\n", fmtNLLs(seq.history))
	fmt.Fprintf(out, "            sharded %v\n", fmtNLLs(sh.history))
	fmt.Fprintf(out, "NLL agreement: batched vs baseline epoch 1 rel %.3g; sharded vs batched max rel %.3g\n", baseGap, nllGap)
	digest, err := modelDigest(seqModel, shModel)
	if err != nil {
		fmt.Fprintf(out, "training: digest: %v\n", err)
		return
	}
	fmt.Fprintf(out, "training digest: %s\n", digest)

	entries := []BenchEntry{
		{Name: "dmv_train_rows_per_sec_baseline", Value: base.rowsPerSec, Unit: "rows/sec",
			Extra: "per-row scalar losses, legacy kernels (pre-fast-path)"},
		{Name: "dmv_train_rows_per_sec_batched", Value: seq.rowsPerSec, Unit: "rows/sec",
			Extra: "batched decode losses + FMA/packed kernels, Workers=1"},
		{Name: "dmv_train_rows_per_sec_sharded", Value: sh.rowsPerSec, Unit: "rows/sec",
			Extra: fmt.Sprintf("data-parallel gradient sharding, Workers=%d", shardW)},
		{Name: "dmv_train_speedup_vs_baseline", Value: seq.rowsPerSec / base.rowsPerSec, Unit: "x",
			Extra: fmt.Sprintf("batched over baseline; sharded %.2fx", sh.rowsPerSec/base.rowsPerSec)},
		{Name: "dmv_train_step_p50", Value: seqP50, Unit: "ms", Extra: "batched fast path, Workers=1"},
		{Name: "dmv_train_step_p99", Value: seqP99, Unit: "ms", Extra: "batched fast path, Workers=1"},
		{Name: "dmv_train_epoch1_nll_batched", Value: seq.history[0], Unit: "nats",
			Extra: fmt.Sprintf("baseline epoch-1 NLL %.6f (rel gap %.3g)", base.history[0], baseGap)},
		{Name: "dmv_train_nll_rel_gap_sharded", Value: nllGap, Unit: "fraction",
			Extra: "max over epochs of |sharded - batched| / |batched|"},
	}
	if err := writeBenchJSON(cfg.BenchOut, entries); err != nil {
		fmt.Fprintf(out, "training: writing %s: %v\n", cfg.BenchOut, err)
		return
	}
	fmt.Fprintf(out, "wrote %s\n", cfg.BenchOut)
}

// modelDigest is the SHA-256 of the models' saved bytes, one after the
// other: two runs print the same digest exactly when they trained the same
// weights bit for bit.
func modelDigest(models ...*made.Model) (string, error) {
	h := sha256.New()
	for _, m := range models {
		if err := m.Save(h); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func fmtNLLs(h []float64) string {
	s := "["
	for i, v := range h {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", v)
	}
	return s + "]"
}
