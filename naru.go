// Package naru is a pure-Go implementation of Naru (Neural Relation
// Understanding), the deep unsupervised cardinality/selectivity estimator of
// Yang et al., "Selectivity Estimation with Deep Likelihood Models" (2019).
//
// Naru approximates a relation's joint data distribution with a deep
// autoregressive likelihood model (a masked autoencoder, MADE) trained by
// maximum likelihood over the table's tuples — no training queries, no query
// feedback, no independence assumptions. Range and IN predicates are
// estimated with progressive sampling, the paper's Monte Carlo integration
// scheme that steers samples into the high-mass part of the query region and
// corrects the bias with importance weighting.
//
// The typical flow:
//
//	tbl, _ := naru.LoadCSV(file, "orders")
//	est, _ := naru.Build(tbl, naru.DefaultConfig())
//	sel, _ := est.Selectivity(naru.Query{Preds: []naru.Predicate{
//		{Col: tbl.ColumnIndex("price"), Op: naru.OpLe, Code: code},
//	}})
//
// Everything the estimator needs lives in this module with no dependencies
// beyond the Go standard library; the heavy lifting (tensor math, the MADE
// network, the samplers, every baseline from the paper's evaluation) is in
// the internal packages, re-exported here through a compact facade.
package naru

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/colnet"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/lifecycle"
	"repro/internal/made"
	"repro/internal/neurocard"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/transformer"
)

// Re-exported relational types: the dictionary-encoded column store every
// estimator operates on.
type (
	// Table is an in-memory, dictionary-encoded relation.
	Table = table.Table
	// Column is one dictionary-encoded attribute of a Table.
	Column = table.Column
	// Query is a conjunction of predicates over a Table's columns.
	Query = query.Query
	// Predicate is a single filter (column, operator, literal codes).
	Predicate = query.Predicate
	// Op is a predicate comparison operator.
	Op = query.Op
	// Region is a query compiled to per-column valid-value sets.
	Region = query.Region
	// Result is one served estimate with provenance (see EstimateBatchCtx).
	Result = core.Result
	// ServeOptions configures fault-tolerant batch serving: worker count,
	// per-query deadline, fallback estimator, fault-injection hook. Workers
	// applies to the batch calls; the admission gate (Coalescer), and so
	// every server tenant, always walks a query at Workers = 1.
	ServeOptions = core.ServeOptions
	// Source tags where a served estimate came from.
	Source = core.Source
	// StopReason records why progressive sampling stopped short of the full
	// budget (empty for full-budget answers).
	StopReason = core.StopReason
	// DriftStatus is a point-in-time staleness reading of the lifecycle
	// drift monitor (see Estimator.Drift).
	DriftStatus = lifecycle.DriftStatus
	// RefreshResult reports a completed lifecycle refresh (see RefreshCtx).
	RefreshResult = lifecycle.RefreshResult
	// VersionMeta describes one immutable model version in the lifecycle
	// registry.
	VersionMeta = lifecycle.VersionMeta
)

// Result provenance tags, re-exported from internal/core.
const (
	// SourceModel: the full-budget model estimate.
	SourceModel = core.SourceModel
	// SourceDegraded: an anytime estimate over a deadline-reduced budget.
	SourceDegraded = core.SourceDegraded
	// SourceFallback: the model path failed and the fallback answered.
	SourceFallback = core.SourceFallback
	// SourceFailed: the model path failed and no fallback was available.
	SourceFailed = core.SourceFailed
)

// Sampling stop reasons, re-exported from internal/core.
const (
	// StopNone: the full sample budget ran.
	StopNone = core.StopNone
	// StopTargetStdErr: the adaptive budget met ServeOptions.TargetRelStdErr
	// early (the answer still counts as SourceModel).
	StopTargetStdErr = core.StopTargetStdErr
	// StopDeadline: the per-query deadline cut the budget short.
	StopDeadline = core.StopDeadline
	// StopCancel: the serving context was cancelled mid-query.
	StopCancel = core.StopCancel
	// StopShed: admission control rejected the query before the model ran.
	StopShed = core.StopShed
)

// Predicate operators, re-exported from internal/query.
const (
	OpEq      = query.OpEq
	OpNe      = query.OpNe
	OpLt      = query.OpLt
	OpLe      = query.OpLe
	OpGt      = query.OpGt
	OpGe      = query.OpGe
	OpIn      = query.OpIn
	OpBetween = query.OpBetween
)

// LoadCSV reads a CSV stream (header row required) into a dictionary-encoded
// Table, inferring int/float/string column types.
func LoadCSV(r io.Reader, name string) (*Table, error) { return table.LoadCSV(r, name) }

// Architecture selects the autoregressive model family (§3.2, §4.3).
type Architecture int

// The three architectures the paper discusses: the masked autoencoder
// (architecture B, the paper's default), the per-column network
// (architecture A), and a causal-attention Transformer.
const (
	ArchMADE Architecture = iota
	ArchColumnNet
	ArchTransformer
)

// Config selects the model architecture and training/querying budgets.
type Config struct {
	// Architecture picks the model family (default ArchMADE, the paper's
	// choice: "Naru therefore defaults to architecture B", §4.3).
	Architecture Architecture

	// HiddenSizes are the masked-MLP layer widths (default 4×128, the
	// paper's Conviva-A architecture). For ArchColumnNet the first entry is
	// the per-column hidden width and the count is the layer count; for
	// ArchTransformer the first entry is the model width and the count is
	// the block count.
	HiddenSizes []int
	// EmbedThreshold: columns with at least this many distinct values use
	// learned embeddings instead of one-hot encoding (default 64).
	EmbedThreshold int
	// EmbedDim is the embedding width h (default 64).
	EmbedDim int
	// Samples is the number of progressive-sampling paths per query
	// (default 2000; the paper's Naru-2000).
	Samples int
	// Epochs, BatchSize, LR control maximum-likelihood training
	// (defaults 10, 512, 2e-3).
	Epochs    int
	BatchSize int
	LR        float64
	// Seed makes everything deterministic.
	Seed int64

	// CheckpointPath, when non-empty, checkpoints training state atomically
	// every CheckpointEvery steps (default 100) to this file, inside a
	// CRC32-protected envelope.
	CheckpointPath  string
	CheckpointEvery int
	// Resume continues training from CheckpointPath if the file exists;
	// because the batch schedule is derived from (Seed, epoch), the resumed
	// run is bit-identical to an uninterrupted one. A corrupt checkpoint is
	// an error; a missing one starts fresh.
	Resume bool

	// TrainWorkers enables deterministic data-parallel gradient sharding
	// during training: each batch is split into TrainWorkers fixed shards
	// whose gradients are accumulated concurrently and reduced in a fixed
	// order. Results are bit-reproducible for a given (Seed, TrainWorkers);
	// the worker count is recorded in checkpoints and a resumed run adopts
	// the recorded value. 0 or 1 trains sequentially; architectures without
	// sharding support fall back to sequential.
	TrainWorkers int

	// StopAfterSteps, when positive, halts training after that many gradient
	// steps with ErrTrainingStopped, leaving the checkpoint (if configured)
	// behind for a later -resume. It exists to script interruption: the
	// check tooling uses it to prove a stopped-and-resumed run is
	// bit-identical to an uninterrupted one.
	StopAfterSteps int

	// Metrics, when non-nil, receives training telemetry (naru_train_*)
	// during Build and is attached to the resulting estimator's serving path
	// (naru_query_* plus per-query traces). Expose it with MetricsHandler or
	// ServeMetrics. Collection never changes estimates or the training
	// trajectory; nil (the default) disables it.
	Metrics *Metrics

	// Lifecycle, when non-nil, attaches a model-lifecycle manager to the
	// built estimator: online row ingestion, drift detection against the
	// training snapshot, checkpoint-resumable background refresh, and
	// versioned hot-swap serving. Equivalent to calling EnableLifecycle on
	// the estimator Build returns.
	Lifecycle *LifecycleConfig
}

// LifecycleConfig tunes the model-lifecycle manager (Config.Lifecycle or
// Estimator.EnableLifecycle). The zero value ingests and counts rows but
// never marks the model stale; training hyperparameters for refreshes are
// derived from the estimator's Config (half LR, a shifted seed).
type LifecycleConfig struct {
	// NLLThreshold marks the model Stale when appended rows' mean NLL
	// exceeds the training-snapshot baseline by more than this many nats
	// (<= 0 disables the signal).
	NLLThreshold float64
	// TVDThreshold marks the model Stale when any column's marginal
	// total-variation distance between snapshot and appended rows exceeds
	// it (<= 0 disables the signal).
	TVDThreshold float64
	// MinDriftRows is how many appended rows must accumulate before the
	// thresholds are consulted (default 64).
	MinDriftRows int
	// RefreshAfter makes ShouldRefresh true once this many rows have been
	// appended since the last refresh, drift or not (0 disables).
	RefreshAfter int
	// RefreshEpochs is the fine-tuning epoch budget per refresh (default 4).
	RefreshEpochs int
	// CheckpointPath, when set, makes refreshes durable and resumable: a
	// cancelled refresh flushes its stopping point here and the next refresh
	// resumes from it. Use a path private to the lifecycle.
	CheckpointPath string
	// CheckpointEvery is the refresh checkpoint cadence in steps (default
	// 100, as in training).
	CheckpointEvery int
	// RegistryDir, when set, persists every swapped-in model version (and
	// the bootstrap version) under this directory with an envelope-framed
	// manifest.
	RegistryDir string
	// AdoptRegistry, with RegistryDir set, makes the lifecycle adopt the
	// registry's active version for serving at attach time instead of
	// registering the in-memory model as a fresh bootstrap — the restart
	// path: a server that crashed (or was chaos-killed) comes back serving
	// the newest loadable persisted version, after the registry has
	// self-healed (orphan temp files swept, corrupt artifacts quarantined).
	AdoptRegistry bool
}

// DefaultConfig returns sensible defaults for medium-size tables.
func DefaultConfig() Config {
	return Config{
		HiddenSizes:    []int{128, 128, 128, 128},
		EmbedThreshold: 64,
		EmbedDim:       64,
		Samples:        2000,
		Epochs:         10,
		BatchSize:      512,
		LR:             2e-3,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if len(c.HiddenSizes) == 0 {
		c.HiddenSizes = d.HiddenSizes
	}
	if c.EmbedThreshold <= 0 {
		c.EmbedThreshold = d.EmbedThreshold
	}
	if c.EmbedDim <= 0 {
		c.EmbedDim = d.EmbedDim
	}
	if c.Samples <= 0 {
		c.Samples = d.Samples
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.LR <= 0 {
		c.LR = d.LR
	}
	return c
}

// estimatorVersion is one immutable serving bundle: a model, the sampler
// wrapping it, and the schema facts queries need. Hot-swap replaces the whole
// bundle through one atomic pointer, so a query that loaded a bundle keeps
// model, sampler, domains, and row count mutually consistent for its entire
// execution even while a new version is being installed.
//
// The bundle is also the one place single-table and join serving differ: a
// join version's snap is its layout table, numRows its join size, and plan
// adds each query's fanout scale columns (see ServeJoin). Every serving path
// compiles through compileFor, so none of them branches on the kind.
type estimatorVersion struct {
	model   core.Trainable
	sampler *core.Estimator
	domains []int
	// snap is the table snapshot the model was trained on (nil for estimators
	// loaded from disk without their table). compileFor consults its
	// dictionaries so range predicates keep their value order even after
	// online appends have extended a dictionary with an arrival-ordered tail.
	snap    *Table
	numRows int64
	id      uint64
	plan    func(Query) ([]core.ScaleCol, error) // nil for a single table
}

// Estimator is a trained Naru estimator bound to a table schema. All query
// methods are safe to call concurrently with InstallVersion (the lifecycle
// hot-swap): readers run lock-free against the version bundle they loaded.
type Estimator struct {
	cfg Config
	cur atomic.Pointer[estimatorVersion]

	// obsMu serializes observer attachment against version installs so a
	// freshly installed sampler never misses the registry.
	obsMu  sync.Mutex
	obsReg *Metrics

	lc   *lifecycle.Manager
	join *neurocard.Estimator // set by ServeJoin
}

// InstallVersion atomically replaces the serving bundle (the lifecycle.Target
// contract). snap is the table snapshot the model was trained on — queries
// compile range predicates against its dictionaries, so extended-dictionary
// columns keep their value order (nil falls back to pure code-order
// compilation, exact while dictionaries are fully sorted). In-flight queries
// finish on the version they loaded; new queries pick up the installed one.
// No lock is taken on the query path.
func (e *Estimator) InstallVersion(m core.Trainable, snap *Table, rows int64, version uint64) {
	s := core.NewEstimator(m, e.cfg.Samples, e.cfg.Seed+2)
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	s.SetObserver(e.obsReg)
	s.SetVersion(version)
	e.cur.Store(&estimatorVersion{
		model:   m,
		sampler: s,
		domains: m.DomainSizes(),
		snap:    snap,
		numRows: rows,
		id:      version,
	})
}

// ModelVersion returns the serving model's version id (1 for estimators
// without a lifecycle manager; the registry id otherwise). Every Result and
// query trace carries the id of the version that answered it.
func (e *Estimator) ModelVersion() uint64 { return e.cur.Load().id }

// ErrTrainingStopped is returned (wrapped) by Build when Config.
// StopAfterSteps halted training before completion. The run is not a
// failure: the configured checkpoint holds the stopping point and a Resume
// run continues bit-identically.
var ErrTrainingStopped = errors.New("training stopped by StopAfterSteps")

// Build trains a Naru estimator on the table: unsupervised maximum
// likelihood over the tuples, exactly as a classical synopsis would be built
// from a scan.
func Build(t *Table, cfg Config) (*Estimator, error) {
	cfg = cfg.withDefaults()
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("naru: empty table")
	}
	m, err := newModel(t.DomainSizes(), cfg)
	if err != nil {
		return nil, err
	}
	tc := core.TrainConfig{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, LR: cfg.LR, Seed: cfg.Seed + 1,
		CheckpointPath: cfg.CheckpointPath, CheckpointEvery: cfg.CheckpointEvery,
		Resume: cfg.Resume, Workers: cfg.TrainWorkers, Obs: cfg.Metrics,
	}
	if cfg.StopAfterSteps > 0 {
		// Count steps run in THIS process (not the global step index, which a
		// resumed run inherits), so "-stop-after N" always does N steps of
		// work before halting.
		steps := 0
		tc.OnStep = func(int, float64) error {
			steps++
			if steps >= cfg.StopAfterSteps {
				return ErrTrainingStopped
			}
			return nil
		}
	}
	if _, err := core.TrainRun(m, t, tc); err != nil {
		if errors.Is(err, ErrTrainingStopped) {
			return nil, fmt.Errorf("naru: %w", err)
		}
		return nil, fmt.Errorf("naru: training: %w", err)
	}
	e := newEstimator(m, t, cfg, int64(t.NumRows()))
	if cfg.Lifecycle != nil {
		if err := e.EnableLifecycle(t, *cfg.Lifecycle); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// newModel constructs an untrained model of the configured architecture over
// the given domain sizes. The lifecycle Rebuild hook reuses it when appends
// have grown the dictionaries beyond the active model's domains.
func newModel(domains []int, cfg Config) (core.Trainable, error) {
	switch cfg.Architecture {
	case ArchMADE:
		return made.New(domains, made.Config{
			HiddenSizes:    cfg.HiddenSizes,
			EmbedThreshold: cfg.EmbedThreshold,
			EmbedDim:       cfg.EmbedDim,
			Seed:           cfg.Seed,
		}), nil
	case ArchColumnNet:
		return colnet.New(domains, colnet.Config{
			Hidden:         cfg.HiddenSizes[0],
			Layers:         len(cfg.HiddenSizes),
			EmbedThreshold: cfg.EmbedThreshold,
			EmbedDim:       cfg.EmbedDim,
			Seed:           cfg.Seed,
		}), nil
	case ArchTransformer:
		return transformer.New(domains, transformer.Config{
			DModel: cfg.HiddenSizes[0],
			Layers: len(cfg.HiddenSizes),
			Seed:   cfg.Seed,
		}), nil
	}
	return nil, fmt.Errorf("naru: unknown architecture %d", cfg.Architecture)
}

func newEstimator(m core.Trainable, snap *Table, cfg Config, rows int64) *Estimator {
	e := &Estimator{cfg: cfg, obsReg: cfg.Metrics}
	e.InstallVersion(m, snap, rows, 1)
	return e
}

// ServeJoin returns an estimator that serves a join estimator's versions:
// queries parse against the layout table (columns named table.column), each
// carries the fanout scale columns its sub-join needs, and a selectivity
// multiplies the join size. Every refreshed version of je is installed here
// before je itself switches to it. Ingestion, drift and refresh stay on je
// (see Join).
func ServeJoin(je *neurocard.Estimator) *Estimator {
	e := &Estimator{join: je}
	je.OnServe(e.installJoin)
	return e
}

// installJoin installs one join version. The first one's observer becomes
// the estimator's registry; a refreshed walk is moved onto it (SetMetrics may
// have changed it) before this estimator serves through the walk.
func (e *Estimator) installJoin(s neurocard.Serving) {
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	if e.cur.Load() == nil {
		e.obsReg = s.Walk.Observer()
	} else if s.Walk.Observer() != e.obsReg {
		s.Walk.SetObserver(e.obsReg)
	}
	e.cur.Store(&estimatorVersion{
		model:   s.Model,
		sampler: s.Walk,
		domains: s.Model.DomainSizes(),
		snap:    s.Layout,
		numRows: s.JoinSize,
		id:      s.ID,
		plan:    s.Plan,
	})
}

// Join returns the join estimator ServeJoin wrapped (nil for a single table).
func (e *Estimator) Join() *neurocard.Estimator { return e.join }

// Snapshot returns the table queries parse against and the row count their
// selectivity multiplies, from one read: the lifecycle's committed snapshot
// while ingestion is live (appended values are queryable at once), else the
// serving version's table — for a join, the layout table and the join size.
// The table is nil for an estimator loaded from disk without its table.
func (e *Estimator) Snapshot() (*Table, int64) {
	if e.lc != nil {
		t := e.lc.Snapshot()
		return t, int64(t.NumRows())
	}
	v := e.cur.Load()
	return v.snap, v.numRows
}

// Selectivity estimates the fraction of rows satisfying the conjunction,
// through the fused walk at one worker: the answer SelectivityBatchCtx gives
// the same query. A join query carries its scale columns (see ServeJoin). A
// query the model fails returns its Result's error.
func (e *Estimator) Selectivity(q Query) (float64, error) {
	v := e.cur.Load()
	r, err := serveQuery(v, q)
	return r.Sel, err
}

// serveQuery compiles q against one version bundle and serves it through
// the fused walk at one worker. The error is the compile error, or the
// failed query's Result.Err.
func serveQuery(v *estimatorVersion, q Query) (Result, error) {
	req, err := compileFor(v, q)
	if err != nil {
		return Result{}, err
	}
	r := v.sampler.EstimateFused(context.Background(), []core.Request{req}, ServeOptions{Workers: 1})[0]
	return r, r.Err
}

// SelectivityBatchCtx is the fault-tolerant batch entry point: each query
// runs under the context and the per-query deadline in opts, panics are
// contained per query, deadline pressure degrades the progressive-sample
// budget (an anytime estimate with widened standard error) instead of
// aborting, and failed queries route to opts.Fallback when one is set. Every
// query gets a Result tagged with its provenance; queries that complete their
// full model budget are bit-identical to a sequential serve. Queries walk
// through the fused walk (EstimateFused), as tenant queries do. Join queries
// carry their scale columns (see ServeJoin).
func (e *Estimator) SelectivityBatchCtx(ctx context.Context, qs []Query, opts ServeOptions) ([]Result, error) {
	v := e.cur.Load()
	reqs := make([]core.Request, len(qs))
	for i, q := range qs {
		req, err := compileFor(v, q)
		if err != nil {
			return nil, fmt.Errorf("naru: query %d: %w", i, err)
		}
		reqs[i] = req
	}
	return v.sampler.EstimateFused(ctx, reqs, opts), nil
}

// EstimateBatchCtx serves pre-compiled regions with per-query fault
// containment on the reference walk, one CondBatch block per chunk; see
// SelectivityBatchCtx. Its answers are EstimateFused's, bit for bit. The
// whole batch runs on one model version — a hot-swap during the batch does
// not split it.
func (e *Estimator) EstimateBatchCtx(ctx context.Context, regs []*Region, opts ServeOptions) []Result {
	return e.cur.Load().sampler.EstimateBatchCtx(ctx, core.Requests(regs), opts)
}

// EstimateFused serves pre-compiled regions through the fused walk: each
// query's progressive-sampling chunks of one admission wave run as one tall
// model batch, so the per-column fixed costs are paid once per block instead
// of once per 128-path chunk. Results are bit-identical to
// EstimateBatchCtx with the same options (both consume the same per-query
// RNG streams); models without block-walk support walk one CondBatch block
// per chunk. The whole batch runs on one model version.
func (e *Estimator) EstimateFused(ctx context.Context, regs []*Region, opts ServeOptions) []Result {
	return e.cur.Load().sampler.EstimateFused(ctx, core.Requests(regs), opts)
}

// NewFromModel wraps an already-trained model (and the table snapshot it was
// trained on) in an estimator without running Build's training loop. The
// benchmark harness uses it to serve one trained model through several entry
// points; cfg supplies the querying budget (Samples, Seed).
func NewFromModel(m core.Trainable, snap *Table, cfg Config) *Estimator {
	rows := int64(0)
	if snap != nil {
		rows = int64(snap.NumRows())
	}
	return newEstimator(m, snap, cfg.withDefaults(), rows)
}

// Fallback builds a degradation target for ServeOptions.Fallback from the
// table: the Postgres-style 1D-statistics baseline (MCVs + equi-depth
// histograms under the independence assumption). It is cheap to build, needs
// no trained model, and cannot diverge — exactly what a failed model query
// should degrade to.
func Fallback(t *Table) func(*Region) float64 {
	pg := estimator.NewPostgres(t, 100, 100)
	return pg.EstimateRegion
}

// Cardinality estimates the number of rows satisfying the conjunction:
// Selectivity's answer times the row count (for a join, the join size). The
// selectivity and row count come from one bundle load, so a concurrent
// hot-swap can never pair one version's selectivity with another's rows.
func (e *Estimator) Cardinality(q Query) (float64, error) {
	v := e.cur.Load()
	r, err := serveQuery(v, q)
	return r.Sel * float64(v.numRows), err
}

// SelectivityDisjunction estimates P(q1 ∨ q2 ∨ ...) for conjunctive queries
// via the inclusion–exclusion principle (§2.2): one fused call at one worker
// over the 2^len(qs)−1 intersections. Keep the disjunction short (≤ ~8
// branches). A join query with scale columns is refused, since the
// intersections cannot carry them, and a failed intersection returns its
// Result's error.
func (e *Estimator) SelectivityDisjunction(qs []Query) (float64, error) {
	if len(qs) == 0 {
		return 0, nil
	}
	if len(qs) > 16 {
		return 0, fmt.Errorf("naru: disjunction of %d branches needs 2^%d terms", len(qs), len(qs))
	}
	v := e.cur.Load()
	regions := make([]*Region, len(qs))
	for i, q := range qs {
		reg, err := regionOf(v, q)
		if err != nil {
			return 0, err
		}
		regions[i] = reg
	}
	reqs := make([]core.Request, 0, 1<<len(qs)-1)
	for mask := 1; mask < 1<<len(qs); mask++ {
		var inter *Region
		for i := range qs {
			if mask&(1<<i) == 0 {
				continue
			}
			if inter == nil {
				inter = regions[i]
			} else {
				inter = inter.Intersect(regions[i])
			}
		}
		reqs = append(reqs, core.Request{Region: inter})
	}
	var total float64
	for i, r := range v.sampler.EstimateFused(context.Background(), reqs, ServeOptions{Workers: 1}) {
		if r.Err != nil {
			return 0, r.Err
		}
		if bits.OnesCount(uint(i+1))%2 == 1 {
			total += r.Sel
		} else {
			total -= r.Sel
		}
	}
	return min(max(total, 0), 1), nil
}

// EstimateRegion estimates a pre-compiled region on the reference walk (the
// low-level entry point shared with the benchmark harness; see
// core.Estimator.EstimateRegion).
func (e *Estimator) EstimateRegion(reg *Region) float64 {
	return e.cur.Load().sampler.EstimateRegion(reg)
}

// Name implements the benchmark estimator interface.
func (e *Estimator) Name() string { return e.cur.Load().sampler.Name() }

// SizeBytes reports the model's uncompressed storage footprint.
func (e *Estimator) SizeBytes() int64 { return e.cur.Load().model.SizeBytes() }

// EntropyGapBits reports the goodness-of-fit of §3.3 against a table:
// H(P, P̂) − H(P) in bits (0 = perfect fit). Pass the training table, or
// fresh data to measure staleness.
func (e *Estimator) EntropyGapBits(t *Table) float64 {
	return core.EntropyGap(e.cur.Load().model, t, 50000)
}

// Save serializes the trained model to w. MADE and ColumnNet models are
// persistable; the Transformer variant is an in-memory research architecture
// and returns an error.
func (e *Estimator) Save(w io.Writer) error {
	v := e.cur.Load()
	var arch Architecture
	var save func(io.Writer) error
	switch m := v.model.(type) {
	case *made.Model:
		arch, save = ArchMADE, m.Save
	case *colnet.Model:
		arch, save = ArchColumnNet, m.Save
	default:
		return fmt.Errorf("naru: %T does not support Save", v.model)
	}
	if _, err := fmt.Fprintf(w, "naruv1 %d\n", arch); err != nil {
		return err
	}
	if err := save(w); err != nil {
		return err
	}
	// Row count travels alongside the weights so Cardinality keeps working.
	_, err := fmt.Fprintf(w, "%d\n", v.numRows)
	return err
}

// LoadEstimator reconstructs an estimator saved with Save. cfg supplies the
// querying budget (Samples, Seed); architecture fields are taken from the
// saved model.
func LoadEstimator(r io.Reader, cfg Config) (*Estimator, error) {
	// One buffered reader for header, gob payload, and trailer: bufio.Reader
	// implements io.ByteReader, so the gob decoder reads exactly its own
	// bytes instead of wrapping (and over-buffering) the raw stream.
	br := bufio.NewReader(r)
	var archTag int
	if _, err := fmt.Fscanf(br, "naruv1 %d\n", &archTag); err != nil {
		return nil, fmt.Errorf("naru: reading model header: %w", err)
	}
	var m core.Trainable
	var err error
	switch Architecture(archTag) {
	case ArchMADE:
		m, err = made.Load(br)
	case ArchColumnNet:
		m, err = colnet.Load(br)
	default:
		return nil, fmt.Errorf("naru: unknown saved architecture %d", archTag)
	}
	if err != nil {
		return nil, err
	}
	var rows int64
	if _, err := fmt.Fscanf(br, "%d\n", &rows); err != nil {
		return nil, fmt.Errorf("naru: reading row count: %w", err)
	}
	return newEstimator(m, nil, cfg.withDefaults(), rows), nil
}

// SampleTuples draws n tuples from the learned joint distribution,
// optionally restricted to a region (nil for unrestricted) — the §8
// approximate-query-processing direction. The result is row-major with
// stride NumCols.
func (e *Estimator) SampleTuples(reg *Region, n int) []int32 {
	return core.SampleTuples(e.cur.Load().model, reg, n, e.cfg.Seed+4)
}

// OutlierScores returns -log2 P̂(x) in bits for each of n row-major tuples:
// high scores mark tuples the model finds unlikely (§8 outlier detection).
func (e *Estimator) OutlierScores(codes []int32, n int) []float64 {
	return core.OutlierScores(e.cur.Load().model, codes, n)
}

// ErrCompile tags a query that does not compile against the serving model:
// a predicate on a column or code the model does not know, or one a join
// model cannot serve (a predicate on a fanout column). The query is the
// caller's error, not the model's: HTTP tenants answer it with 400 and the
// circuit breaker does not count it as a model failure. Check with errors.Is;
// the wrapped error says what did not compile.
var ErrCompile = errors.New("naru: query does not compile against the serving model")

// compileFor lowers a query onto one version bundle's schema: its region and,
// for a join version, its scale columns. With the bundle's training snapshot
// at hand, range predicates are compared in value order via the snapshot's
// dictionaries — required once online appends have extended a dictionary
// with an arrival-ordered tail, where code order is no longer value order.
// Snapshot-less bundles (estimators loaded from disk) compile in pure code
// space, exact while dictionaries are fully sorted. Every error wraps
// ErrCompile.
func compileFor(v *estimatorVersion, q Query) (core.Request, error) {
	reg, err := query.CompileSnapshot(q, v.domains, v.snap)
	req := core.Request{Region: reg}
	if err == nil && v.plan != nil {
		req.Scales, err = v.plan(q)
	}
	if err != nil {
		return req, fmt.Errorf("%w: %w", ErrCompile, err)
	}
	return req, nil
}

// regionOf compiles q for SelectivityDisjunction, whose intersected regions
// cannot carry scale columns, so a join query that needs them is refused
// rather than answered as if it spanned the whole join.
func regionOf(v *estimatorVersion, q Query) (*Region, error) {
	req, err := compileFor(v, q)
	if err == nil && req.Scales != nil {
		err = errors.New("naru: a disjunction cannot carry a join query's scale columns")
	}
	return req.Region, err
}

// Compile lowers a query against a table into a Region (exposed for use with
// EstimateRegion and the baseline estimators).
func Compile(q Query, t *Table) (*Region, error) { return query.Compile(q, t) }

// TrueSelectivity executes the query exactly against the table — the ground
// truth used throughout the evaluation.
func TrueSelectivity(q Query, t *Table) (float64, error) {
	reg, err := query.Compile(q, t)
	if err != nil {
		return 0, err
	}
	return query.Selectivity(reg, t), nil
}
