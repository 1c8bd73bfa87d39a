package neurocard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/made"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// ErrEstimateFailed marks an estimate whose model path failed (a contained
// panic, a non-finite estimate, misused scale columns, an injected fault),
// as opposed to a query the caller got wrong: a server answers it with 500,
// not 400. The wrapped error says what failed.
var ErrEstimateFailed = errors.New("neurocard: estimate failed")

// Join-estimator metric families.
const (
	metricEstimates    = "naru_join_estimates_total"
	metricScaledEsts   = "naru_join_estimates_scaled_total"
	metricModelVersion = "naru_join_model_version"
)

// version is one immutable serving bundle: a sampler snapshot over fixed base
// tables, the model trained on its tuple stream, the progressive-sampling
// estimator, and the query-compilation artifacts derived from the layout.
// Versions are swapped atomically on refresh; in-flight estimates finish on
// the bundle they started with.
type version struct {
	id       uint64
	smp      *Sampler
	model    *made.Model
	est      *core.Estimator
	lt       *table.Table // zero-row layout table: the query compile target
	fanPos   []int        // edge index -> layout column position
	parentOf []int        // table index -> parent table (-1 at the root)
}

func newVersion(id uint64, smp *Sampler, m *made.Model, cfg Config) (*version, error) {
	lt, err := smp.LayoutTable()
	if err != nil {
		return nil, err
	}
	v := &version{id: id, smp: smp, model: m, lt: lt}
	v.est = core.NewEstimator(m, cfg.Samples, cfg.Seed)
	v.est.SetVersion(id)
	if cfg.Obs != nil {
		v.est.SetObserver(cfg.Obs)
	}
	v.fanPos = make([]int, len(smp.schema.Edges))
	for i, lc := range smp.layout.Cols {
		if lc.Edge >= 0 {
			v.fanPos[lc.Edge] = i
		}
	}
	v.parentOf = make([]int, len(smp.schema.Tables))
	for i := range v.parentOf {
		v.parentOf[i] = -1
	}
	for _, e := range smp.schema.Edges {
		v.parentOf[e.Child] = e.Parent
	}
	return v, nil
}

// Serving is one version as a caller serves it through its own request
// path: the trained model and its progressive-sampling estimator, the
// zero-row layout table queries parse and compile against, the exact join
// size a selectivity multiplies, and Plan, which returns a query's fanout
// scale columns and counts it as a join estimate.
type Serving struct {
	ID       uint64
	Model    *made.Model
	Walk     *core.Estimator
	Layout   *table.Table
	JoinSize int64
	Plan     func(query.Query) ([]core.ScaleCol, error)
}

// serving exports version v.
func (e *Estimator) serving(v *version) Serving {
	return Serving{
		ID: v.id, Model: v.model, Walk: v.est, Layout: v.lt, JoinSize: v.smp.JoinSize(),
		Plan: func(q query.Query) ([]core.ScaleCol, error) { return e.plan(v, q) },
	}
}

// OnServe registers fn to receive every version the estimator serves: the
// current one now, and each refreshed one before the estimator switches to
// it, so a caller serving through fn never runs behind ModelVersion. fn runs
// under the lock that serializes refreshes, so it must not call Refresh or
// OnServe.
func (e *Estimator) OnServe(fn func(Serving)) {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	e.onServe = append(e.onServe, fn)
	fn(e.serving(e.cur.Load()))
}

// plan is planScales plus the join-estimate counters: every planned query is
// about to be served.
func (e *Estimator) plan(v *version, q query.Query) ([]core.ScaleCol, error) {
	scales, err := v.planScales(q)
	if err != nil {
		return nil, err
	}
	if e.estimates != nil {
		e.estimates.Add(1)
		if len(scales) > 0 {
			e.scaledEst.Add(1)
		}
	}
	return scales, nil
}

// planScales derives the fanout downscales for a query: the spanned subtree S
// is the predicated tables plus the root, closed under parent links (so it is
// always the minimal connected subtree containing them), and every edge whose
// child falls outside S contributes its inverse-fanout column. Downscaling by
// those columns telescopes the excluded subtrees out of the sum, which is
// exactly NeuroCard's unbiased sub-join estimate. Predicates on virtual
// fanout columns are rejected — they are model plumbing, not data.
func (v *version) planScales(q query.Query) ([]core.ScaleCol, error) {
	lay := v.smp.layout
	inS := make([]bool, len(v.smp.schema.Tables))
	inS[0] = true
	for _, p := range q.Preds {
		if p.Col < 0 || p.Col >= len(lay.Cols) {
			return nil, fmt.Errorf("neurocard: predicate column %d outside the %d-column layout", p.Col, len(lay.Cols))
		}
		lc := lay.Cols[p.Col]
		if lc.Edge >= 0 {
			return nil, fmt.Errorf("neurocard: cannot predicate virtual column %s", lay.Names[p.Col])
		}
		for ti := lc.Table; ti != -1 && !inS[ti]; ti = v.parentOf[ti] {
			inS[ti] = true
		}
	}
	var scales []core.ScaleCol
	for ei, e := range v.smp.schema.Edges {
		if !inS[e.Child] {
			scales = append(scales, core.ScaleCol{Col: v.fanPos[ei], Inv: v.smp.FanoutInv(ei)})
		}
	}
	return scales, nil
}

// Estimator is the deployable join estimator: one model over the full join
// answering sub-join cardinalities, with copy-on-write base-table ingestion
// and atomically-swapped model refreshes. Safe for concurrent use.
type Estimator struct {
	cfg Config
	reg *obs.Registry

	cur atomic.Pointer[version]

	mu     sync.Mutex // guards tables, drifts, nextID
	tables []*table.Table
	edges  []Edge
	drifts []*lifecycle.TableDrift
	nextID uint64

	refreshMu sync.Mutex      // serializes Refresh and OnServe
	onServe   []func(Serving) // guarded by refreshMu

	estimates *obs.Counter
	scaledEst *obs.Counter
	appended  *obs.Counter
	refreshes *obs.Counter
	verGauge  *obs.Gauge
	tvdGauge  *obs.Gauge
}

// Train builds the join estimator: it constructs the streaming sampler over
// sch, fits one MADE model to its unbiased join-tuple stream, and wraps the
// result in a serving bundle. Returns the per-epoch loss history alongside.
// ctx cancellation aborts training between gradient steps.
func Train(ctx context.Context, sch *Schema, cfg Config) (*Estimator, []float64, error) {
	cfg = cfg.withDefaults()
	smp, err := NewSampler(sch)
	if err != nil {
		return nil, nil, err
	}
	smp.Observe(cfg.Obs)
	model, history, err := trainModel(ctx, smp, cfg)
	if err != nil {
		return nil, history, err
	}
	e, err := assemble(sch, smp, model, cfg)
	return e, history, err
}

// layoutRoles stamps each layout column's role string; shared between model
// construction and the Load-time consistency check.
func layoutRoles(smp *Sampler) []string {
	lay := smp.Layout()
	roles := make([]string, len(lay.Cols))
	for i, lc := range lay.Cols {
		if lc.Edge >= 0 {
			roles[i] = fmt.Sprintf("fanout:%d:%s", lc.Edge, lay.Names[i])
		} else {
			roles[i] = "base:" + lay.Names[i]
		}
	}
	return roles
}

func assemble(sch *Schema, smp *Sampler, model *made.Model, cfg Config) (*Estimator, error) {
	e := &Estimator{
		cfg:    cfg,
		reg:    cfg.Obs,
		tables: append([]*table.Table(nil), sch.Tables...),
		edges:  append([]Edge(nil), sch.Edges...),
		nextID: 1,
	}
	v, err := newVersion(1, smp, model, cfg)
	if err != nil {
		return nil, err
	}
	e.cur.Store(v)
	e.drifts = make([]*lifecycle.TableDrift, len(e.tables))
	for i, t := range e.tables {
		e.drifts[i] = lifecycle.NewTableDrift(t)
	}
	if e.reg != nil {
		e.estimates = e.reg.Counter(metricEstimates)
		e.scaledEst = e.reg.Counter(metricScaledEsts)
		e.appended = e.reg.Counter(metricAppendedRows)
		e.refreshes = e.reg.Counter(metricRefreshTotal)
		e.verGauge = e.reg.Gauge(metricModelVersion)
		e.tvdGauge = e.reg.Gauge(metricDriftTVD)
		e.verGauge.Set(1)
	}
	return e, nil
}

// LayoutTable returns the current version's zero-row compile target. Queries
// parsed against it must be estimated via EstimateQuery promptly; across a
// refresh the layout may change (dictionary extensions), so long-lived
// callers should prefer EstimateWhere, which parses and estimates on one
// consistent version.
func (e *Estimator) LayoutTable() *table.Table { return e.cur.Load().lt }

// Columns returns the model column names ("table.column" for base columns,
// "fanout(parent→child)" for virtual columns).
func (e *Estimator) Columns() []string {
	return append([]string(nil), e.cur.Load().smp.Layout().Names...)
}

// JoinSize returns the exact full-join cardinality of the serving snapshot.
func (e *Estimator) JoinSize() int64 { return e.cur.Load().smp.JoinSize() }

// ModelVersion returns the serving bundle's version id (1 at Train, bumped on
// every refresh).
func (e *Estimator) ModelVersion() uint64 { return e.cur.Load().id }

// Sampler returns the serving snapshot's join sampler (read-only).
func (e *Estimator) Sampler() *Sampler { return e.cur.Load().smp }

// EstimateWhere parses a conjunctive WHERE clause over "table.column" names
// (e.g. "customers.region = west AND items.price >= 10") and estimates the
// cardinality of the spanned sub-join under those predicates. Parse and
// estimate run against one consistent version.
func (e *Estimator) EstimateWhere(where string) (card, stderr float64, err error) {
	v := e.cur.Load()
	q, err := query.ParseWhere(where, v.lt)
	if err != nil {
		return 0, 0, err
	}
	return e.estimateOn(v, q)
}

// EstimateQuery estimates a pre-parsed query whose predicate columns index
// the current LayoutTable.
func (e *Estimator) EstimateQuery(q query.Query) (card, stderr float64, err error) {
	return e.estimateOn(e.cur.Load(), q)
}

func (e *Estimator) estimateOn(v *version, q query.Query) (card, stderr float64, err error) {
	reg, err := query.Compile(q, v.lt)
	if err != nil {
		return 0, 0, err
	}
	scales, err := e.plan(v, q)
	if err != nil {
		return 0, 0, err
	}
	req := []core.Request{{Region: reg, Scales: scales}}
	res := v.est.EstimateFused(context.Background(), req, core.ServeOptions{Workers: 1})[0]
	if res.Err != nil {
		return 0, 0, fmt.Errorf("%w: %w", ErrEstimateFailed, res.Err)
	}
	js := float64(v.smp.JoinSize())
	return res.Sel * js, res.StdErr * js, nil
}

// Save writes the serving model (with its column-layout metadata) to w. The
// base tables are not serialized — Load rebuilds the sampler from the schema
// it is given and verifies the layout still matches.
func (e *Estimator) Save(w io.Writer) error {
	return e.cur.Load().model.Save(w)
}

// Load reads a model saved by Save and assembles an estimator serving it over
// sch, which must describe the same join over the same data snapshot: the
// rebuilt layout's column roles and domain sizes must match the model's
// persisted metadata exactly (fanout domains are data-dependent, so appends
// since Save surface here as a clear error — retrain instead).
func Load(r io.Reader, sch *Schema, cfg Config) (*Estimator, error) {
	cfg = cfg.withDefaults()
	model, err := made.Load(r)
	if err != nil {
		return nil, err
	}
	smp, err := NewSampler(sch)
	if err != nil {
		return nil, err
	}
	roles := model.ColumnRoles()
	want := layoutRoles(smp)
	if len(roles) != len(want) {
		return nil, fmt.Errorf("neurocard: model has %d columns, schema layout has %d", len(roles), len(want))
	}
	for i := range want {
		if roles[i] != want[i] {
			return nil, fmt.Errorf("neurocard: column %d role mismatch: model %q vs schema %q", i, roles[i], want[i])
		}
	}
	md, sd := model.DomainSizes(), smp.DomainSizes()
	for i := range sd {
		if md[i] != sd[i] {
			return nil, fmt.Errorf("neurocard: column %q domain mismatch: model %d vs schema %d (data changed since Save? retrain)",
				want[i], md[i], sd[i])
		}
	}
	smp.Observe(cfg.Obs)
	return assemble(sch, smp, model, cfg)
}
