package lifecycle

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/table"
)

// Lifecycle metric families (Prometheus names).
const (
	metricAppendedRows   = "naru_lifecycle_appended_rows"
	metricDriftNLL       = "naru_lifecycle_drift_nll"
	metricDriftTVD       = "naru_lifecycle_drift_tvd"
	metricUnseenValues   = "naru_lifecycle_unseen_values"
	metricStale          = "naru_lifecycle_stale"
	metricModelVersion   = "naru_lifecycle_model_version"
	metricRefreshes      = "naru_lifecycle_refreshes_total"
	metricRefreshFailed  = "naru_lifecycle_refreshes_failed_total"
	metricSwaps          = "naru_lifecycle_swaps_total"
	metricRefreshActive  = "naru_lifecycle_refresh_active"
	metricRefreshEpoch   = "naru_lifecycle_refresh_epoch"
	metricRefreshNLL     = "naru_lifecycle_refresh_nll"
	metricSnapshotRows   = "naru_lifecycle_snapshot_rows"
	metricStagedRows     = "naru_lifecycle_staged_rows"
	metricIngestedTotal  = "naru_lifecycle_ingested_rows_total"
	metricDriftScoreRows = "naru_lifecycle_drift_scored_rows"
	metricGCTotal        = "naru_lifecycle_gc_total"
	metricQuarantined    = "naru_lifecycle_quarantined_total"
	metricRecoveries     = "naru_lifecycle_recoveries_total"
)

// lcObs bundles the manager's pre-resolved metric handles; the zero value
// (nil registry) makes every update a no-op, like the core estObs/trainObs.
type lcObs struct {
	appendedRows  *obs.Gauge
	driftNLL      *obs.Gauge
	driftTVD      *obs.Gauge
	unseenValues  *obs.Gauge
	stale         *obs.Gauge
	modelVersion  *obs.Gauge
	refreshes     *obs.Counter
	refreshFailed *obs.Counter
	swaps         *obs.Counter
	refreshActive *obs.Gauge
	refreshEpoch  *obs.Gauge
	refreshNLL    *obs.Gauge
	snapshotRows  *obs.Gauge
	stagedRows    *obs.Gauge
	ingestedTotal *obs.Counter
	scoredRows    *obs.Gauge
	// Registry crash-recovery accounting (satellite of the chaos layer):
	// swept temp files, quarantined artifacts, healing passes that changed
	// anything.
	gcTotal          *obs.Counter
	quarantinedTotal *obs.Counter
	recoveries       *obs.Counter
}

func newLcObs(r *obs.Registry) lcObs {
	if r == nil {
		return lcObs{}
	}
	return lcObs{
		appendedRows:     r.Gauge(metricAppendedRows),
		driftNLL:         r.Gauge(metricDriftNLL),
		driftTVD:         r.Gauge(metricDriftTVD),
		unseenValues:     r.Gauge(metricUnseenValues),
		stale:            r.Gauge(metricStale),
		modelVersion:     r.Gauge(metricModelVersion),
		refreshes:        r.Counter(metricRefreshes),
		refreshFailed:    r.Counter(metricRefreshFailed),
		swaps:            r.Counter(metricSwaps),
		refreshActive:    r.Gauge(metricRefreshActive),
		refreshEpoch:     r.Gauge(metricRefreshEpoch),
		refreshNLL:       r.Gauge(metricRefreshNLL),
		snapshotRows:     r.Gauge(metricSnapshotRows),
		stagedRows:       r.Gauge(metricStagedRows),
		ingestedTotal:    r.Counter(metricIngestedTotal),
		scoredRows:       r.Gauge(metricDriftScoreRows),
		gcTotal:          r.Counter(metricGCTotal),
		quarantinedTotal: r.Counter(metricQuarantined),
		recoveries:       r.Counter(metricRecoveries),
	}
}

// driftScoreBatch is how many appended rows are NLL-scored per LogProbBatch
// call.
const driftScoreBatch = 256

// DriftStatus is a point-in-time reading of the drift monitor.
type DriftStatus struct {
	// AppendedRows is how many rows have been committed since the active
	// model's training snapshot.
	AppendedRows int `json:"appended_rows"`
	// NLLExcess is mean(appended-row NLL) − baseline NLL, in nats: how much
	// more surprised the model is by new rows than by the data it trained on.
	// Only rows whose codes the model can represent contribute.
	NLLExcess float64 `json:"nll_excess"`
	// TVD is the maximum per-column total-variation distance between the
	// training snapshot's marginals and the appended rows' marginals.
	TVD float64 `json:"tvd"`
	// UnseenValues counts appended values outside the model's domains
	// (dictionary extensions the model cannot represent at all).
	UnseenValues int `json:"unseen_values"`
	// Stale reports whether any configured threshold is exceeded.
	Stale bool `json:"stale"`
}

// driftMonitor accumulates the cheap staleness signals of the lifecycle
// manager: the table's marginal drift (the embedded TableDrift: baseline and
// appended marginals, and their TVD) plus the model's NLL on its own training
// data, compared against the NLL of rows appended since, and the count of
// appended values the model cannot represent. All methods are called under
// the manager's mutex.
type driftMonitor struct {
	*TableDrift

	// scorer is a private inference replica of the active model (nil when the
	// model is not Forkable, which disables NLL scoring but not TVD).
	scorer core.Model
	// domains are the active model's domain sizes; appended codes at or above
	// these are unseen values the model cannot represent.
	domains []int

	baseNLL float64 // mean NLL (nats) of the training snapshot under scorer
	nllSum  float64
	nllRows int
	unseen  int

	buf []int32   // scoring batch buffer
	lp  []float64 // scoring output buffer
}

// newDriftMonitor snapshots the baseline statistics of model on t. The model
// is forked for private scoring when possible, so scoring never races the
// serving replicas.
func newDriftMonitor(model core.Trainable, t *table.Table) *driftMonitor {
	d := &driftMonitor{TableDrift: NewTableDrift(t), domains: model.DomainSizes()}
	if f, ok := model.(core.Forkable); ok {
		if fm, ok := f.ForkModel().(core.Model); ok {
			d.scorer = fm
		}
	}
	d.buf = make([]int32, driftScoreBatch*t.NumCols())
	d.lp = make([]float64, driftScoreBatch)
	if d.scorer != nil {
		d.baseNLL = d.meanNLL(t, 0, t.NumRows())
	}
	return d
}

// marginals histograms each column's codes over rows [lo, hi).
func marginals(t *table.Table, lo, hi int) [][]float64 {
	out := make([][]float64, t.NumCols())
	for i, c := range t.Cols {
		h := make([]float64, c.DomainSize())
		for _, code := range c.Codes[lo:hi] {
			h[code]++
		}
		out[i] = h
	}
	return out
}

// meanNLL scores rows [lo, hi) of t under the scorer, skipping rows with
// codes outside the model's domains, and returns the mean NLL in nats. The
// row sample is capped deterministically for large tables.
func (d *driftMonitor) meanNLL(t *table.Table, lo, hi int) float64 {
	const maxScore = 4096
	stride := 1
	if n := hi - lo; n > maxScore {
		stride = (n + maxScore - 1) / maxScore
	}
	var sum float64
	rows := 0
	d.score(t, lo, hi, stride, &sum, &rows)
	if rows == 0 {
		return 0
	}
	return sum / float64(rows)
}

// score adds the NLL of every stride-th row of [lo, hi) of t under the
// scorer to *sum, one row at a time in row order, and counts the scored rows
// in *rows. Rows with codes outside the model's domains are skipped.
func (d *driftMonitor) score(t *table.Table, lo, hi, stride int, sum *float64, rows *int) {
	nc := t.NumCols()
	fill := 0
	flush := func() {
		if fill == 0 {
			return
		}
		d.scorer.LogProbBatch(d.buf, fill, d.lp[:fill])
		for _, lp := range d.lp[:fill] {
			*sum += -lp
			*rows++
		}
		fill = 0
	}
	for r := lo; r < hi; r += stride {
		ok := true
		for c := 0; c < nc; c++ {
			code := t.Cols[c].Codes[r]
			if int(code) >= d.domains[c] {
				ok = false
				break
			}
			d.buf[fill*nc+c] = code
		}
		if !ok {
			continue
		}
		fill++
		if fill == driftScoreBatch {
			flush()
		}
	}
	flush()
}

// observe folds rows [lo, hi) of the new snapshot into the appended-rows
// statistics.
func (d *driftMonitor) observe(t *table.Table, lo, hi int) {
	d.Observe(t, lo, hi)
	for i, c := range t.Cols {
		for _, code := range c.Codes[lo:hi] {
			if int(code) >= d.domains[i] {
				d.unseen++
			}
		}
	}
	if d.scorer != nil {
		d.score(t, lo, hi, 1, &d.nllSum, &d.nllRows)
	}
}

// nllExcess returns mean(appended NLL) − baseline NLL in nats (0 until a
// scored row exists).
func (d *driftMonitor) nllExcess() float64 {
	if d.nllRows == 0 {
		return 0
	}
	return d.nllSum/float64(d.nllRows) - d.baseNLL
}
