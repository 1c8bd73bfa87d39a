package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/table"
)

// Training metric families (Prometheus names).
const (
	metricTrainSteps       = "naru_train_steps_total"
	metricTrainEpochs      = "naru_train_epochs_total"
	metricTrainRollbacks   = "naru_train_divergence_rollbacks_total"
	metricTrainCkptWrites  = "naru_train_checkpoint_writes_total"
	metricTrainStepLoss    = "naru_train_step_loss"
	metricTrainGradNorm    = "naru_train_grad_norm"
	metricTrainEpochNLL    = "naru_train_epoch_nll"
	metricTrainLR          = "naru_train_learning_rate"
	metricTrainCkptLatency = "naru_train_checkpoint_write_seconds"
	metricTrainRowsPerSec  = "naru_train_rows_per_sec"
	metricTrainStepSecs    = "naru_train_step_seconds"
	metricTrainWorkers     = "naru_train_workers"
)

// trainObs bundles the training loop's pre-resolved metric handles; the zero
// value (from a nil registry) makes every update a no-op.
type trainObs struct {
	steps       *obs.Counter
	epochs      *obs.Counter
	rollbacks   *obs.Counter
	ckptWrites  *obs.Counter
	stepLoss    *obs.Gauge
	gradNorm    *obs.Gauge
	epochNLL    *obs.Gauge
	lr          *obs.Gauge
	ckptLatency *obs.Histogram
	rowsPerSec  *obs.Gauge
	stepLatency *obs.Histogram
	workers     *obs.Gauge
}

func newTrainObs(r *obs.Registry) trainObs {
	if r == nil {
		return trainObs{}
	}
	return trainObs{
		steps:       r.Counter(metricTrainSteps),
		epochs:      r.Counter(metricTrainEpochs),
		rollbacks:   r.Counter(metricTrainRollbacks),
		ckptWrites:  r.Counter(metricTrainCkptWrites),
		stepLoss:    r.Gauge(metricTrainStepLoss),
		gradNorm:    r.Gauge(metricTrainGradNorm),
		epochNLL:    r.Gauge(metricTrainEpochNLL),
		lr:          r.Gauge(metricTrainLR),
		ckptLatency: r.Histogram(metricTrainCkptLatency, obs.LatencyBuckets),
		rowsPerSec:  r.Gauge(metricTrainRowsPerSec),
		stepLatency: r.Histogram(metricTrainStepSecs, obs.LatencyBuckets),
		workers:     r.Gauge(metricTrainWorkers),
	}
}

// Trainable is a Model that supports maximum-likelihood gradient training
// (both MADE and the per-column architecture implement it).
type Trainable interface {
	Model
	// TrainStep runs one gradient step over a batch of n full tuples
	// (row-major codes) and returns the batch's mean negative
	// log-likelihood in nats. A nil optimizer accumulates gradients only.
	TrainStep(codes []int32, n int, opt *nn.Adam) float64
	Params() []*nn.Param
}

// ShardTrainable is a Trainable that supports deterministic data-parallel
// gradient sharding: the trainer forks one gradient-private replica per
// worker, runs GradStep on fixed contiguous shards of each batch
// concurrently, and reduces the shard gradients in fixed worker order.
type ShardTrainable interface {
	Trainable
	// GradStep zeroes the receiver's gradients, accumulates the unaveraged
	// gradient of a batch of n full tuples, and returns the total (summed)
	// NLL in nats. No optimizer step, no 1/n scaling.
	GradStep(codes []int32, n int) float64
	// ForkTrain returns a replica sharing parameter values with the receiver
	// but owning private gradients and scratch. The result must satisfy
	// shardReplica with parameters index-aligned to the receiver's (declared
	// any to keep model packages free of a core dependency).
	ForkTrain() any
}

// shardReplica is what the trainer needs from a forked training replica.
type shardReplica interface {
	GradStep(codes []int32, n int) float64
	Params() []*nn.Param
}

// shardStepper drives one data-parallel gradient step: replica 0 is the
// primary model itself, replicas 1..W-1 are ForkTrain clones. Shard bounds
// are a pure function of (batch size, workers), and both the gradient reduce
// and the loss sum walk shards in ascending order, so for a fixed (Seed,
// Workers) the whole trajectory is bit-reproducible; changing Workers changes
// float32 summation grouping and therefore the bits.
type shardStepper struct {
	replicas []shardReplica
	params   [][]*nn.Param // params[w] aligned index-for-index across w
	nlls     []float64
	bounds   []int // len(replicas)+1 row boundaries of each batch
	nc       int   // columns per tuple
}

// newShardStepper forks workers-1 replicas of m and fixes the shard bounds
// for batches of batch rows.
func newShardStepper(m ShardTrainable, workers, batch, nc int) (*shardStepper, error) {
	s := &shardStepper{nc: nc}
	s.replicas = append(s.replicas, m)
	for w := 1; w < workers; w++ {
		rep, ok := m.ForkTrain().(shardReplica)
		if !ok {
			return nil, fmt.Errorf("core: %T.ForkTrain result cannot shard-train", m)
		}
		s.replicas = append(s.replicas, rep)
	}
	want := len(m.Params())
	for w, r := range s.replicas {
		ps := r.Params()
		if len(ps) != want {
			return nil, fmt.Errorf("core: training replica %d has %d parameters, primary has %d", w, len(ps), want)
		}
		s.params = append(s.params, ps)
	}
	s.nlls = make([]float64, workers)
	per, rem := batch/workers, batch%workers
	s.bounds = make([]int, workers+1)
	for w := 0; w < workers; w++ {
		sz := per
		if w < rem {
			sz++
		}
		s.bounds[w+1] = s.bounds[w] + sz
	}
	return s, nil
}

// step runs one sharded gradient accumulation over a batch of n tuples,
// leaving the batch-averaged gradient in the primary's parameters, and
// returns the mean NLL. The caller applies the optimizer step.
func (s *shardStepper) step(batch []int32, n int) float64 {
	var wg sync.WaitGroup
	for w := range s.replicas {
		lo, hi := s.bounds[w], s.bounds[w+1]
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			s.nlls[w] = s.replicas[w].GradStep(batch[lo*s.nc:hi*s.nc], hi-lo)
		}(w, lo, hi)
	}
	wg.Wait()
	// Fixed-order reduce: primary += replicas 1..W-1, ascending, then the
	// single 1/n averaging the sequential path would apply.
	primary := s.params[0]
	for pi, p := range primary {
		for w := 1; w < len(s.replicas); w++ {
			p.Grad.Add(s.params[w][pi].Grad)
		}
	}
	inv := 1 / float32(n)
	var total float64
	for _, p := range primary {
		p.Grad.Scale(inv)
	}
	for _, v := range s.nlls {
		total += v
	}
	return total / float64(n)
}

// TrainConfig controls the unsupervised training loop of §4.1: batches of
// random tuples are read from the table and used for gradient updates, with
// no supervised queries or feedback anywhere.
type TrainConfig struct {
	Epochs    int     // passes over the data (paper: 1 pass already useful, §6.4)
	BatchSize int     // tuples per gradient step
	LR        float64 // Adam learning rate
	Seed      int64   // shuffling seed

	// Workers is the number of data-parallel gradient shards per step.
	// Values <= 1 (and models that do not implement ShardTrainable) run the
	// classic sequential step. With W > 1, each batch is split into W fixed
	// contiguous shards, replicas accumulate shard gradients concurrently,
	// and the reduce walks shards in ascending order — so a run is
	// bit-reproducible given (Seed, Workers), while different Workers values
	// regroup float32 sums and may differ in final bits. Workers is recorded
	// in checkpoints and a resumed run adopts the checkpoint's value, keeping
	// resumption bit-identical to the uninterrupted run.
	Workers int

	// OnEpoch, when non-nil, is invoked after each epoch with the epoch
	// index (0-based) and that epoch's mean NLL in nats; returning false
	// stops training early. Figure 5 hooks its per-epoch quality
	// measurements in here.
	OnEpoch func(epoch int, nll float64) bool

	// OnStep, when non-nil, is invoked after every successful gradient step
	// with the global step index (cumulative across epochs) and that step's
	// loss. A non-nil error aborts training immediately — the fault-injection
	// suite uses it to simulate the process dying mid-epoch; monitoring
	// callbacks can use it for step-granular progress.
	OnStep func(step int, loss float64) error

	// CheckpointPath, when non-empty, enables durable checkpointing: every
	// CheckpointEvery steps (and at each epoch boundary) the full training
	// state — weights, Adam moments, schedule position, learning rate — is
	// written atomically (write-temp + fsync + rename) inside a
	// CRC32-protected envelope.
	CheckpointPath  string
	CheckpointEvery int // steps between checkpoints (default 100)

	// CheckpointOnStop, when set (and CheckpointPath is configured), writes a
	// final checkpoint before returning when an OnStep hook aborts training.
	// The lifecycle refresh worker uses it so a cancelled fine-tune leaves its
	// exact stopping point durable for the next refresh to resume from; the
	// default (off) preserves the crash-simulation semantics of the fault
	// suite, where an aborted run must look like a process death.
	CheckpointOnStop bool

	// Resume continues a run from CheckpointPath if the file exists: the
	// epoch/step schedule picks up exactly where the checkpoint stopped and,
	// because batch order is derived deterministically from (Seed, epoch),
	// the resumed trajectory is bit-identical to an uninterrupted run. A
	// corrupt checkpoint is an error; a missing one starts fresh.
	Resume bool

	// MaxRetries bounds divergence rollbacks: when a step produces a
	// non-finite loss or a gradient norm above MaxGradNorm, training rolls
	// back to the last good state, halves the learning rate, and tries
	// again, at most MaxRetries times (default 3) before giving up.
	MaxRetries int

	// MaxGradNorm is the global L2 gradient-norm explosion threshold
	// (default 1e6; <0 disables the norm check — non-finite losses are
	// always guarded).
	MaxGradNorm float64

	// Obs, when non-nil, receives training telemetry: step/epoch counters,
	// loss and gradient-norm gauges, divergence-guard trips, and checkpoint
	// write latency (the naru_train_* metric families). Telemetry reads the
	// same loss and gradient norm the divergence guard already computes, so
	// attaching a registry never changes the training trajectory.
	Obs *obs.Registry
}

// ErrDiverged is returned (wrapped) when training keeps producing non-finite
// losses or exploding gradients after exhausting its rollback retries.
var ErrDiverged = errors.New("core: training diverged")

// Train fits the model to the relation by maximum likelihood (Eq. 2),
// returning the per-epoch mean NLL in nats per tuple. The same routine also
// serves fine-tuning on new data for the §6.7.3 staleness experiments: call
// it again with the updated table. Train is the error-free convenience
// wrapper around TrainRun for configurations without checkpointing.
func Train(m Trainable, t *table.Table, cfg TrainConfig) []float64 {
	history, _ := TrainRun(m, t, cfg)
	return history
}

// BatchSource feeds training batches to TrainRunSource without requiring a
// materialized table — the §4.1 "join samplers can be used to produce batches
// of tuples on-the-fly" path. The contract mirrors the table path's
// determinism: Gather must be a pure function of (the state established by
// the last BeginEpoch, step), because the trainer overlaps the next step's
// gather with the current step's gradient computation and replays steps after
// a divergence rollback. BeginEpoch is never called while a Gather is in
// flight.
type BatchSource interface {
	// NumCols is the width of one training tuple.
	NumCols() int
	// NumRows is the nominal epoch size: steps per epoch = NumRows/BatchSize.
	NumRows() int
	// BeginEpoch establishes the epoch's batch schedule from (seed, epoch)
	// alone, so a resumed run rebuilds the exact schedule without replaying
	// earlier epochs.
	BeginEpoch(seed int64, epoch int)
	// Gather writes batch `step` of the current epoch (batchSize tuples,
	// row-major) into dst.
	Gather(dst []int32, step, batchSize int)
}

// tableSource adapts a materialized table to BatchSource: each epoch draws a
// fresh permutation from (seed, epoch) and batches are contiguous windows of
// it — exactly the schedule TrainRun has always used, so TrainRun delegating
// through it is bit-identical to the pre-BatchSource trainer.
type tableSource struct {
	t     *table.Table
	order []int
}

func (s *tableSource) NumCols() int { return s.t.NumCols() }
func (s *tableSource) NumRows() int { return s.t.NumRows() }

func (s *tableSource) BeginEpoch(seed int64, epoch int) {
	s.order = rand.New(rand.NewSource(mixSeed(seed, int64(epoch)))).Perm(s.t.NumRows())
}

func (s *tableSource) Gather(dst []int32, step, batchSize int) {
	nc := s.t.NumCols()
	off := step * batchSize
	for bi := 0; bi < batchSize; bi++ {
		row := s.order[off+bi]
		for c := 0; c < nc; c++ {
			dst[bi*nc+c] = s.t.Cols[c].Codes[row]
		}
	}
}

// TrainRun is Train with the resilience layer surfaced: checkpoint/resume,
// the divergence guard, and step hooks all report through the error return.
// On error the history covers the epochs completed before the failure.
func TrainRun(m Trainable, t *table.Table, cfg TrainConfig) ([]float64, error) {
	return TrainRunSource(m, &tableSource{t: t}, cfg)
}

// TrainRunSource is TrainRun fed from a streaming BatchSource instead of a
// materialized table: same divergence guard, checkpoint/resume, sharding, and
// determinism contract (a run is bit-reproducible given (Seed, Workers), and
// a resumed run matches the uninterrupted one) — only the batch supply
// differs. The join-schema trainer feeds it unbiased join-tuple batches.
func TrainRunSource(m Trainable, src BatchSource, cfg TrainConfig) ([]float64, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.LR <= 0 {
		cfg.LR = 2e-3
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 100
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.MaxGradNorm == 0 {
		cfg.MaxGradNorm = 1e6
	}
	opt := nn.NewAdam(cfg.LR)
	to := newTrainObs(cfg.Obs)
	to.lr.Set(opt.LR)
	// writeCkpt wraps the atomic checkpoint write with telemetry: write
	// count and fsync+rename latency.
	writeCkpt := func(st *trainState) error {
		start := time.Now()
		if err := writeCheckpoint(cfg.CheckpointPath, st); err != nil {
			return err
		}
		to.ckptWrites.Inc()
		to.ckptLatency.ObserveDuration(time.Since(start))
		return nil
	}
	n := src.NumRows()
	nc := src.NumCols()
	stepsPerEpoch := n / cfg.BatchSize

	sm, shardable := m.(ShardTrainable)
	workers := cfg.Workers
	if workers <= 1 || !shardable {
		workers = 1
	}
	if workers > cfg.BatchSize {
		workers = cfg.BatchSize
	}

	// good is the rollback target of the divergence guard and the image of
	// the last durable checkpoint. It always exists (the pre-training state
	// is good), so a first-step divergence can still roll back.
	var good *trainState
	if cfg.Resume && cfg.CheckpointPath != "" {
		st, err := loadCheckpoint(cfg.CheckpointPath)
		switch {
		case err == nil:
			if err := restoreState(st, m, opt); err != nil {
				return nil, err
			}
			good = st
			// The checkpoint's worker count wins over the config: the shard
			// grouping of float32 sums is part of the trajectory, so resuming
			// with a different count would silently fork it. Checkpoints from
			// before sharding carry Workers == 0, meaning sequential.
			workers = st.Workers
			if workers < 1 {
				workers = 1
			}
			if workers > 1 && !shardable {
				return nil, fmt.Errorf("core: checkpoint was trained with %d workers but %T cannot shard-train", workers, m)
			}
		case os.IsNotExist(err):
			// First run: nothing to resume.
		default:
			return nil, err
		}
	}
	if good == nil {
		good = captureState(m, opt)
		good.Workers = workers
	}
	to.workers.Set(float64(workers))

	var stepper *shardStepper
	if workers > 1 {
		var err error
		if stepper, err = newShardStepper(sm, workers, cfg.BatchSize, nc); err != nil {
			return nil, err
		}
	}

	history := append([]float64(nil), good.History...)
	epoch, step := good.Epoch, good.Step
	epochSum, epochSteps := good.EpochSum, good.EpochSteps
	retries := good.Retries

	// Double-buffered batch gather: while the model computes step s, a
	// goroutine copies step s+1's rows into the spare buffer, hiding the
	// strided column reads behind the GEMMs. The gather is a pure function of
	// (order, step), so overlapping it never changes what a step sees.
	cur := make([]int32, cfg.BatchSize*nc)
	next := make([]int32, cfg.BatchSize*nc)
	gather := func(dst []int32, step int) {
		src.Gather(dst, step, cfg.BatchSize)
	}
	var pfDone chan struct{} // non-nil while a prefetch into next is in flight
	pfStep := -1             // step the in-flight prefetch is gathering
	joinPrefetch := func() {
		if pfDone != nil {
			<-pfDone
			pfDone = nil
		}
	}
	// Joins the in-flight prefetch on every exit path; the rollback path
	// additionally discards it inline (the epoch order may change).
	defer joinPrefetch()

	// snapshot records the current position as the new good state and, when
	// configured, persists it durably.
	snapshot := func() error {
		st := captureState(m, opt)
		st.Epoch, st.Step = epoch, step
		st.History = append([]float64(nil), history...)
		st.EpochSum, st.EpochSteps = epochSum, epochSteps
		st.Retries = retries
		st.Workers = workers
		good = st
		if cfg.CheckpointPath == "" {
			return nil
		}
		return writeCkpt(st)
	}

	for epoch < cfg.Epochs {
		// Fresh batch schedule each epoch, derived from (Seed, epoch) alone:
		// the paper trains on "batches of random tuples" (§4.1), and keying
		// the schedule by epoch lets a resumed run rebuild the exact batches
		// without replaying earlier epochs.
		src.BeginEpoch(cfg.Seed, epoch)
		for step < stepsPerEpoch {
			if pfDone != nil && pfStep == step {
				<-pfDone
				pfDone = nil
				cur, next = next, cur
			} else {
				joinPrefetch() // discard a stale prefetch (defensive; rollback already joins)
				gather(cur, step)
			}
			pfStep = -1
			if step+1 < stepsPerEpoch {
				pfStep = step + 1
				pfDone = make(chan struct{})
				go func(dst []int32, s int, done chan struct{}) {
					gather(dst, s)
					close(done)
				}(next, pfStep, pfDone)
			}
			// Accumulate gradients without stepping so a diverged batch can
			// be discarded before it poisons the weights; the guard inspects
			// loss and gradient norm, then the optimizer step is applied.
			stepStart := time.Now()
			var loss float64
			if stepper != nil {
				loss = stepper.step(cur, cfg.BatchSize)
			} else {
				loss = m.TrainStep(cur, cfg.BatchSize, nil)
			}
			norm := gradNorm(m.Params())
			stepDur := time.Since(stepStart)
			to.stepLatency.ObserveDuration(stepDur)
			if secs := stepDur.Seconds(); secs > 0 {
				to.rowsPerSec.Set(float64(cfg.BatchSize) / secs)
			}
			to.stepLoss.Set(loss)
			to.gradNorm.Set(norm)
			if !isFinite(loss) || normExplodes(norm, cfg.MaxGradNorm) {
				retries++
				to.rollbacks.Inc()
				if retries > cfg.MaxRetries {
					return history, fmt.Errorf("%w: step %d of epoch %d (loss %v) after %d rollbacks",
						ErrDiverged, step, epoch, loss, cfg.MaxRetries)
				}
				// Roll back to the last good state and halve the learning
				// rate from there; the halved rate becomes part of the good
				// state so further rollbacks keep shrinking it.
				if err := restoreState(good, m, opt); err != nil {
					return history, err
				}
				opt.LR /= 2
				good.LR = opt.LR
				good.Retries = retries
				to.lr.Set(opt.LR)
				epoch, step = good.Epoch, good.Step
				history = append(history[:0], good.History...)
				epochSum, epochSteps = good.EpochSum, good.EpochSteps
				if cfg.CheckpointPath != "" {
					if err := writeCkpt(good); err != nil {
						return history, err
					}
				}
				// The in-flight prefetch gathered against an order that may no
				// longer apply after the position moved; discard it.
				joinPrefetch()
				pfStep = -1
				break // re-derive the epoch's order (epoch may have moved back)
			}
			opt.Step(m.Params())
			epochSum += loss
			epochSteps++
			step++
			to.steps.Inc()
			if cfg.OnStep != nil {
				if err := cfg.OnStep(epoch*stepsPerEpoch+step-1, loss); err != nil {
					if cfg.CheckpointOnStop && cfg.CheckpointPath != "" {
						if serr := snapshot(); serr != nil {
							err = errors.Join(err, serr)
						}
					}
					return history, err
				}
			}
			if step%cfg.CheckpointEvery == 0 {
				if err := snapshot(); err != nil {
					return history, err
				}
			}
		}
		if step < stepsPerEpoch {
			continue // divergence rollback: restart the (possibly earlier) epoch
		}
		nll := epochSum / math.Max(1, float64(epochSteps))
		history = append(history, nll)
		to.epochNLL.Set(nll)
		to.epochs.Inc()
		epoch, step = epoch+1, 0
		epochSum, epochSteps = 0, 0
		if err := snapshot(); err != nil {
			return history, err
		}
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch-1, nll) {
			break
		}
	}
	return history, nil
}

// mixSeed derives a well-separated stream seed from (seed, k) by a
// splitmix64 round, mirroring Estimator.seedFor.
func mixSeed(seed, k int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(k+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// gradNorm returns the global L2 gradient norm over all parameters
// (NaN/+Inf propagate, which normExplodes treats as an explosion). The loop
// computes it once per step and shares it between the divergence guard and
// the naru_train_grad_norm gauge.
func gradNorm(params []*nn.Param) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	return math.Sqrt(sq)
}

// normExplodes reports whether a gradient norm is non-finite or above the
// threshold (maxNorm < 0 disables the magnitude check but still catches
// non-finite gradients).
func normExplodes(norm, maxNorm float64) bool {
	if !isFinite(norm) {
		return true
	}
	return maxNorm >= 0 && norm > maxNorm
}

// gradExplodes combines gradNorm and normExplodes (kept for tests and
// callers that do not need the norm itself).
func gradExplodes(params []*nn.Param, maxNorm float64) bool {
	return normExplodes(gradNorm(params), maxNorm)
}
