// Package lifecycle closes the train→serve loop: online row ingestion with
// consistent snapshots, cheap drift detection against the training snapshot,
// background fine-tuning that resumes from checkpoints, and a versioned
// registry feeding an RCU-style hot-swap point in the serving estimator.
//
// The paper's own staleness experiment (§6.7.3) shows that a Naru model fine-
// tuned on appended data recovers its accuracy; NeuroCard leans on the same
// property to keep one estimator current as data grows. This package turns
// that observation into machinery: a Manager owns the grown table snapshot,
// notices when the serving model has drifted from it, retrains a private
// clone in the background, and atomically swaps the result in under live
// query traffic.
package lifecycle

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/table"
)

// siteAppendFlush is the chaos fault point on the ingest commit path (both
// staged flushes and direct CSV appends).
var siteAppendFlush = faultinject.Site("lifecycle.append.flush")

// Target is the serving-side swap point the manager drives. naru.Estimator
// implements it with an atomic pointer swap: in-flight queries finish on the
// version they loaded, new queries pick up the installed one, and no lock
// ever appears on the query path.
type Target interface {
	// InstallVersion atomically replaces the serving model bundle. snap is
	// the table snapshot the model was trained on — the serving side compiles
	// range predicates against its dictionaries, so value order survives
	// online dictionary extension; rows is the snapshot's row count and
	// version the model's registry id.
	InstallVersion(m core.Trainable, snap *table.Table, rows int64, version uint64)
}

// Config tunes a lifecycle Manager. The zero value disables drift thresholds
// (rows are still ingested and counted) and refreshes with conservative
// fine-tuning defaults.
type Config struct {
	// NLLThreshold marks the model Stale when the appended rows' mean NLL
	// exceeds the training-snapshot baseline by more than this many nats
	// (<= 0 disables the NLL signal).
	NLLThreshold float64
	// TVDThreshold marks the model Stale when any column's marginal
	// total-variation distance between training snapshot and appended rows
	// exceeds it (<= 0 disables the marginal signal).
	TVDThreshold float64
	// MinDriftRows is how many appended rows must accumulate before the
	// thresholds are consulted (default 64) — drift over a handful of rows is
	// noise.
	MinDriftRows int
	// RefreshAfter makes ShouldRefresh true once this many rows have been
	// appended since the last refresh, drift or not (0 disables).
	RefreshAfter int

	// RefreshEpochs is the fine-tuning epoch budget per refresh (default 4).
	RefreshEpochs int
	// BatchSize, LR, Seed, TrainWorkers parameterize the refresh TrainRun
	// (defaults 512, 1e-3, 1, sequential).
	BatchSize    int
	LR           float64
	Seed         int64
	TrainWorkers int
	// CheckpointPath, when set, makes refreshes durable: progress checkpoints
	// every CheckpointEvery steps, a final checkpoint when a refresh is
	// cancelled mid-run, and resumption from whatever checkpoint the previous
	// (cancelled) refresh left behind. Use a path private to the lifecycle —
	// sharing the original training run's checkpoint would resume past its
	// completed schedule.
	CheckpointPath  string
	CheckpointEvery int

	// Rebuild, when non-nil, constructs a fresh trainable model over the
	// given domain sizes. It is required only when appended values have grown
	// the dictionaries beyond the active model's domains, where warm
	// fine-tuning is impossible and the refresh falls back to a fresh retrain.
	Rebuild func(domains []int) (core.Trainable, error)

	// OnStep, when non-nil, is composed into the refresh TrainRun's OnStep
	// hook (after the context check). Fault injection and tests use it; a
	// non-nil error cancels the refresh exactly like a context cancellation.
	OnStep func(step int, loss float64) error

	// Registry, when non-nil, persists every swapped-in version (and the
	// bootstrap version at attach).
	Registry *Registry

	// AdoptActive, with a Registry configured, makes NewManager serve the
	// registry's active version instead of re-registering the boot model:
	// after a restart the server comes back on the exact artifact it was
	// serving before (including a version healed back from a crash), rather
	// than resetting the lineage. Load failures retry with bounded backoff,
	// then heal the registry and try once more; if the registry is empty or
	// the adopted model does not fit the boot table, the boot model is
	// registered as usual.
	AdoptActive bool

	// Obs, when non-nil, receives the naru_lifecycle_* metric families and
	// the refresh TrainRun's naru_train_* telemetry.
	Obs *obs.Registry
}

// ErrRefreshRunning is returned when Refresh is called while another refresh
// is in flight.
var ErrRefreshRunning = errors.New("lifecycle: refresh already running")

// stagedBatch is one pending ingest batch: either row-major codes or
// string-rendered values (which may extend dictionaries at flush).
type stagedBatch struct {
	codes []int32
	n     int
	vals  [][]string
}

// Manager owns the lifecycle state: the committed table snapshot serving
// reads, the staged ingest buffer, the drift monitor, and the identity of the
// active model version. One Manager drives one Target.
type Manager struct {
	cfg    Config
	target Target
	o      lcObs

	// snap is the committed snapshot: immutable once stored, republished
	// wholesale by Flush, so readers see either the old rows or old+new,
	// never a torn append.
	snap atomic.Pointer[table.Table]

	mu       sync.Mutex
	staged   []stagedBatch
	nStaged  int
	drift    *driftMonitor
	active   core.Trainable
	version  uint64
	snapRows int // rows covered by the active model's training snapshot

	refreshing atomic.Bool
}

// NewManager attaches a lifecycle manager to a trained model and its training
// snapshot, installing the model into the target as the initial version. With
// a Registry configured, the bootstrap model is persisted as version 1 (or
// adopts the registry's next id if versions already exist).
func NewManager(model core.Trainable, t *table.Table, cfg Config, target Target) (*Manager, error) {
	if cfg.MinDriftRows <= 0 {
		cfg.MinDriftRows = 64
	}
	if cfg.RefreshEpochs <= 0 {
		cfg.RefreshEpochs = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	m := &Manager{cfg: cfg, target: target, o: newLcObs(cfg.Obs)}
	m.snap.Store(t)

	adopted := false
	if cfg.Registry != nil {
		m.publishRecovery(cfg.Registry.Recovery())
		if cfg.AdoptActive {
			if am, meta, ok := adoptActive(cfg.Registry, t); ok {
				model = am
				m.version = meta.ID
				adopted = true
			}
		}
	}

	m.drift = newDriftMonitor(model, t)
	m.active = model
	m.snapRows = t.NumRows()
	if !adopted {
		m.version = 1
		if cfg.Registry != nil {
			meta, err := cfg.Registry.Register(model, int64(t.NumRows()), m.drift.baseNLL)
			if err != nil {
				return nil, err
			}
			m.version = meta.ID
		}
	}
	if target != nil {
		target.InstallVersion(model, t, int64(t.NumRows()), m.version)
	}
	m.o.modelVersion.Set(float64(m.version))
	m.o.snapshotRows.Set(float64(t.NumRows()))
	return m, nil
}

// adoptActive loads the registry's active version for serving, retrying
// transient load failures with bounded backoff and falling back to a healing
// pass before the last attempt. ok=false (registry empty, shape mismatch, or
// every attempt failed) means the caller should register its boot model.
func adoptActive(reg *Registry, t *table.Table) (core.Trainable, VersionMeta, bool) {
	if reg.Active() == 0 {
		return nil, VersionMeta{}, false
	}
	fits := func(m core.Trainable) bool { return len(m.DomainSizes()) == t.NumCols() }
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
		}
		am, meta, err := reg.LoadActive()
		if err == nil {
			if !fits(am) {
				return nil, VersionMeta{}, false
			}
			return am, meta, true
		}
		lastErr = err
	}
	// Persistent failure: the active artifact may have rotted since the
	// registry opened. Heal (quarantine + rollback) and try whatever is
	// active now, once.
	if _, err := reg.Heal(); err == nil && reg.Active() != 0 {
		if am, meta, err := reg.LoadActive(); err == nil && fits(am) {
			return am, meta, true
		}
	}
	_ = lastErr
	return nil, VersionMeta{}, false
}

// publishRecovery folds a healing report into the lifecycle counters.
func (m *Manager) publishRecovery(rep RecoveryReport) {
	m.o.gcTotal.Add(uint64(rep.TempFilesRemoved))
	m.o.quarantinedTotal.Add(uint64(rep.Quarantined))
	if rep.Dirty() {
		m.o.recoveries.Inc()
	}
}

// Recovery returns the registry's self-healing report from when it was
// opened (or last healed): temp files swept, artifacts quarantined, rollback
// provenance. Zero without a registry.
func (m *Manager) Recovery() RecoveryReport {
	if m.cfg.Registry == nil {
		return RecoveryReport{}
	}
	return m.cfg.Registry.Recovery()
}

// Snapshot returns the committed table snapshot (lock-free; safe to read
// concurrently with appends, which publish a fresh table instead of mutating).
func (m *Manager) Snapshot() *table.Table { return m.snap.Load() }

// Version returns the active model version id.
func (m *Manager) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Refreshing reports whether a background refresh is in flight.
func (m *Manager) Refreshing() bool { return m.refreshing.Load() }

// Versions lists the registry's versions (nil without a registry).
func (m *Manager) Versions() []VersionMeta {
	if m.cfg.Registry == nil {
		return nil
	}
	return m.cfg.Registry.Versions()
}

// StageCodes buffers n rows of row-major dictionary codes for the next
// Flush. Staged rows are invisible to serving until flushed.
func (m *Manager) StageCodes(codes []int32, n int) error {
	k := m.snap.Load().NumCols()
	if n <= 0 || len(codes) != n*k {
		return fmt.Errorf("lifecycle: StageCodes got %d codes for %d rows × %d columns", len(codes), n, k)
	}
	cp := append([]int32(nil), codes...)
	m.mu.Lock()
	m.staged = append(m.staged, stagedBatch{codes: cp, n: n})
	m.nStaged += n
	m.o.stagedRows.Set(float64(m.nStaged))
	m.mu.Unlock()
	return nil
}

// StageValues buffers string-rendered rows for the next Flush; unseen values
// extend column dictionaries at flush time.
func (m *Manager) StageValues(rows [][]string) error {
	if len(rows) == 0 {
		return fmt.Errorf("lifecycle: StageValues: no rows")
	}
	cp := make([][]string, len(rows))
	for i, r := range rows {
		cp[i] = append([]string(nil), r...)
	}
	m.mu.Lock()
	m.staged = append(m.staged, stagedBatch{vals: cp})
	m.nStaged += len(rows)
	m.o.stagedRows.Set(float64(m.nStaged))
	m.mu.Unlock()
	return nil
}

// StagedRows returns how many rows await the next Flush.
func (m *Manager) StagedRows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nStaged
}

// Flush applies every staged batch in arrival order and publishes the grown
// snapshot atomically, then folds the new rows into the drift monitor. On
// error nothing is published, the offending batch is dropped from the staged
// buffer, and the healthy batches around it stay staged for the next Flush —
// keeping a bad batch would make every later flush re-apply it and fail,
// permanently poisoning ingestion. Returns the number of rows appended.
func (m *Manager) Flush() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushLocked()
}

func (m *Manager) flushLocked() (int, error) {
	if len(m.staged) == 0 {
		return 0, nil
	}
	// An injected infrastructure fault is not a bad batch: the staged buffer
	// stays intact (unlike the data-error path below, which drops the
	// offending batch) and the next Flush retries everything.
	if err := faultinject.Point(siteAppendFlush); err != nil {
		return 0, fmt.Errorf("lifecycle: flush: %w", err)
	}
	cur := m.snap.Load()
	nt := cur
	var err error
	for i, b := range m.staged {
		if b.codes != nil {
			nt, err = nt.AppendCodes(b.codes, b.n)
		} else {
			nt, err = nt.AppendValues(b.vals)
		}
		if err != nil {
			bad := b.n
			if b.codes == nil {
				bad = len(b.vals)
			}
			m.staged = append(m.staged[:i], m.staged[i+1:]...)
			m.nStaged -= bad
			m.o.stagedRows.Set(float64(m.nStaged))
			return 0, fmt.Errorf("lifecycle: flush: batch of %d rows rejected (dropped from the staged buffer): %w", bad, err)
		}
	}
	added := nt.NumRows() - cur.NumRows()
	m.drift.observe(nt, cur.NumRows(), nt.NumRows())
	m.snap.Store(nt)
	m.staged, m.nStaged = nil, 0
	m.publishDriftLocked()
	m.o.ingestedTotal.Add(uint64(added))
	m.o.stagedRows.Set(0)
	m.o.snapshotRows.Set(float64(nt.NumRows()))
	return added, nil
}

// AppendCodes stages and immediately flushes one code-space batch.
func (m *Manager) AppendCodes(codes []int32, n int) (int, error) {
	if err := m.StageCodes(codes, n); err != nil {
		return 0, err
	}
	return m.Flush()
}

// AppendValues stages and immediately flushes one value-space batch.
func (m *Manager) AppendValues(rows [][]string) (int, error) {
	if err := m.StageValues(rows); err != nil {
		return 0, err
	}
	return m.Flush()
}

// AppendCSV ingests header-less CSV records as one atomic batch. Errors carry
// 1-based line numbers and column names (see table.RowError) and reject the
// whole batch, as does an error reading r. r is read to its end before the
// manager's lock is taken, so a slow writer holds up neither drift readings
// nor other appends; callers bound its size (the server's /append does).
func (m *Manager) AppendCSV(r io.Reader) (int, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("lifecycle: reading CSV: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := faultinject.Point(siteAppendFlush); err != nil {
		return 0, fmt.Errorf("lifecycle: flush: %w", err)
	}
	// Applied directly rather than staged: the CSV body is already one
	// atomic batch, and parsing against the current snapshot gives errors
	// their column context.
	cur := m.snap.Load()
	nt, err := cur.AppendCSV(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	added := nt.NumRows() - cur.NumRows()
	m.drift.observe(nt, cur.NumRows(), nt.NumRows())
	m.snap.Store(nt)
	m.publishDriftLocked()
	m.o.ingestedTotal.Add(uint64(added))
	m.o.snapshotRows.Set(float64(nt.NumRows()))
	return added, nil
}

// Drift returns the current staleness reading.
func (m *Manager) Drift() DriftStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.driftLocked()
}

func (m *Manager) driftLocked() DriftStatus {
	st := DriftStatus{
		AppendedRows: m.drift.appRows,
		NLLExcess:    m.drift.nllExcess(),
		TVD:          m.drift.TVD(),
		UnseenValues: m.drift.unseen,
	}
	if st.AppendedRows >= m.cfg.MinDriftRows {
		if m.cfg.NLLThreshold > 0 && st.NLLExcess > m.cfg.NLLThreshold {
			st.Stale = true
		}
		if m.cfg.TVDThreshold > 0 && st.TVD > m.cfg.TVDThreshold {
			st.Stale = true
		}
		if st.UnseenValues > 0 {
			// Values outside the model's domains are unanswerable regardless
			// of thresholds: the model assigns them no mass at all.
			st.Stale = true
		}
	}
	return st
}

// publishDriftLocked pushes the drift reading into the gauges.
func (m *Manager) publishDriftLocked() {
	st := m.driftLocked()
	m.o.appendedRows.Set(float64(st.AppendedRows))
	m.o.driftNLL.Set(st.NLLExcess)
	m.o.driftTVD.Set(st.TVD)
	m.o.unseenValues.Set(float64(st.UnseenValues))
	m.o.scoredRows.Set(float64(m.drift.nllRows))
	if st.Stale {
		m.o.stale.Set(1)
	} else {
		m.o.stale.Set(0)
	}
}

// Stale reports whether the drift monitor currently marks the model stale.
func (m *Manager) Stale() bool { return m.Drift().Stale }

// ShouldRefresh reports whether a refresh is warranted: the model is stale,
// or RefreshAfter rows have accumulated since the last refresh.
func (m *Manager) ShouldRefresh() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.RefreshAfter > 0 && m.drift.appRows >= m.cfg.RefreshAfter {
		return true
	}
	return m.driftLocked().Stale
}
