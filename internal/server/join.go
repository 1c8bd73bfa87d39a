package server

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	naru "repro"
	"repro/internal/lifecycle"
	"repro/internal/neurocard"
)

// NewJoinTenant serves a NeuroCard-style join estimator as a tenant with
// default options: NewTenant over naru.ServeJoin. Predicates name columns
// table.column and may span any subset of the schema's tables; the estimate
// is the cardinality of the spanned sub-join.
func NewJoinTenant(name string, est *neurocard.Estimator) *Tenant {
	return NewTenant(name, naru.ServeJoin(est), nil, TenantOptions{})
}

// AddJoin registers a join tenant: it is Add.
func (s *Server) AddJoin(tn *Tenant) error { return s.Add(tn) }

// joinKind is a join tenant's ingestion, drift, refresh and models listing:
// the join estimator's per-table copy-on-write appends, its worst-table
// drift reading, and its retrain-and-swap refresh.
type joinKind struct {
	est        *neurocard.Estimator
	refreshing atomic.Bool
}

// JoinAppendResponse is the JSON shape of one POST append to a join tenant.
type JoinAppendResponse struct {
	Table     string          `json:"table"`
	Appended  int             `json:"appended"`
	TotalRows int             `json:"total_rows"`
	Drift     neurocard.Drift `json:"drift"`
}

// ingest appends CSV rows (no header) to the base table named by ?table=.
// The rows join the estimate after the drift-triggered refresh retrains and
// swaps.
func (k *joinKind) ingest(r *http.Request) (any, int, error) {
	tableName := r.FormValue("table")
	if tableName == "" {
		return nil, http.StatusBadRequest, errors.New("missing ?table= base table name")
	}
	cr := csv.NewReader(r.Body)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad CSV body: %w", err)
	}
	if len(rows) == 0 {
		return nil, http.StatusBadRequest, errors.New("empty CSV body")
	}
	if err := k.est.AppendRows(tableName, rows); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return JoinAppendResponse{
		Table:     tableName,
		Appended:  len(rows),
		TotalRows: k.est.Table(tableName).NumRows(),
		Drift:     k.est.Drift(),
	}, 0, nil
}

func (k *joinKind) drift() (any, error) { return k.est.Drift(), nil }

func (k *joinKind) models() any {
	return struct {
		Active   uint64   `json:"active"`
		JoinSize int64    `json:"join_size"`
		Columns  []string `json:"columns"`
	}{Active: k.est.ModelVersion(), JoinSize: k.est.JoinSize(), Columns: k.est.Columns()}
}

func (k *joinKind) refreshState() (refreshing, stale bool) {
	return k.refreshing.Load(), k.est.Drift().Stale
}

func (k *joinKind) refreshDue() bool { return !k.refreshing.Load() && k.est.ShouldRefresh() }

func (k *joinKind) refresh(ctx context.Context) (string, error) {
	if !k.refreshing.CompareAndSwap(false, true) {
		return "", lifecycle.ErrRefreshRunning
	}
	defer k.refreshing.Store(false)
	if err := k.est.Refresh(ctx); err != nil {
		return "", err
	}
	return fmt.Sprintf("swapped in join model version %d (join size %d)", k.est.ModelVersion(), k.est.JoinSize()), nil
}
