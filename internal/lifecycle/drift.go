package lifecycle

import (
	"math"

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
// manager: a baseline snapshot of per-column marginals plus the model's NLL
// on its own training data, compared against the same statistics over rows
// appended since. All methods are called under the manager's mutex.
type driftMonitor struct {
	// scorer is a private inference replica of the active model (nil when the
	// model is not Forkable, which disables NLL scoring but not TVD).
	scorer core.Model
	// domains are the active model's domain sizes; appended codes at or above
	// these are unseen values the model cannot represent.
	domains []int

	baseNLL    float64 // mean NLL (nats) of the training snapshot under scorer
	baseCounts [][]float64
	baseRows   int

	appCounts [][]float64
	appRows   int
	nllSum    float64
	nllRows   int
	unseen    int

	buf []int32   // scoring batch buffer
	lp  []float64 // scoring output buffer
}

// newDriftMonitor snapshots the baseline statistics of model on t. The model
// is forked for private scoring when possible, so scoring never races the
// serving replicas.
func newDriftMonitor(model core.Trainable, t *table.Table) *driftMonitor {
	d := &driftMonitor{domains: model.DomainSizes()}
	if f, ok := model.(core.Forkable); ok {
		if fm, ok := f.ForkModel().(core.Model); ok {
			d.scorer = fm
		}
	}
	d.baseCounts = marginals(t, 0, t.NumRows())
	d.baseRows = t.NumRows()
	d.appCounts = make([][]float64, t.NumCols())
	for i, c := range t.Cols {
		d.appCounts[i] = make([]float64, c.DomainSize())
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
	nc := t.NumCols()
	var sum float64
	rows := 0
	fill := 0
	flush := func() {
		if fill == 0 {
			return
		}
		d.scorer.LogProbBatch(d.buf, fill, d.lp[:fill])
		for _, lp := range d.lp[:fill] {
			sum += -lp
			rows++
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
	if rows == 0 {
		return 0
	}
	return sum / float64(rows)
}

// observe folds rows [lo, hi) of the new snapshot into the appended-rows
// statistics.
func (d *driftMonitor) observe(t *table.Table, lo, hi int) {
	for i, c := range t.Cols {
		// Dictionary extension can grow a column's domain past the histogram;
		// grow in step (baseline keeps zero mass there).
		if n := c.DomainSize(); n > len(d.appCounts[i]) {
			grown := make([]float64, n)
			copy(grown, d.appCounts[i])
			d.appCounts[i] = grown
			gb := make([]float64, n)
			copy(gb, d.baseCounts[i])
			d.baseCounts[i] = gb
		}
		for _, code := range c.Codes[lo:hi] {
			d.appCounts[i][code]++
			if int(code) >= d.domains[i] {
				d.unseen++
			}
		}
	}
	d.appRows += hi - lo
	if d.scorer != nil {
		nc := t.NumCols()
		fill := 0
		flush := func() {
			if fill == 0 {
				return
			}
			d.scorer.LogProbBatch(d.buf, fill, d.lp[:fill])
			for _, lp := range d.lp[:fill] {
				d.nllSum += -lp
				d.nllRows++
			}
			fill = 0
		}
		for r := lo; r < hi; r++ {
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
}

// tvd returns the maximum per-column total-variation distance between the
// baseline and appended-row marginals (0 when nothing was appended).
func (d *driftMonitor) tvd() float64 {
	if d.appRows == 0 || d.baseRows == 0 {
		return 0
	}
	maxD := 0.0
	for i := range d.appCounts {
		var dist float64
		base, app := d.baseCounts[i], d.appCounts[i]
		for code := range app {
			p := base[code] / float64(d.baseRows)
			q := app[code] / float64(d.appRows)
			dist += math.Abs(p - q)
		}
		if dist /= 2; dist > maxD {
			maxD = dist
		}
	}
	return maxD
}

// nllExcess returns mean(appended NLL) − baseline NLL in nats (0 until a
// scored row exists).
func (d *driftMonitor) nllExcess() float64 {
	if d.nllRows == 0 {
		return 0
	}
	return d.nllSum/float64(d.nllRows) - d.baseNLL
}
