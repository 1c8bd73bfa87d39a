package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/neurocard"
	"repro/internal/query"
)

// JoinTenant serves a NeuroCard-style multi-table estimator: one model over a
// join schema, answering conjunctions that may predicate columns of several
// base tables. It rides the same /v1/{tenant}/... routes as single-table
// tenants — the server tries the single-table registry first and falls back
// to join tenants — with the append route taking ?table=<base table> since a
// join tenant ingests into many tables.
//
// Join tenants have no coalescer, breaker, or result cache: the join serving
// path is the estimator itself, and its degradation story is the model-swap
// lifecycle (refresh on drift), not a circuit breaker.
type JoinTenant struct {
	name string
	est  *neurocard.Estimator

	onAppend   func() // set by Server.Start: kicks the background refresh
	refreshing atomic.Bool
}

// NewJoinTenant wraps a trained join estimator for serving under name.
func NewJoinTenant(name string, est *neurocard.Estimator) *JoinTenant {
	return &JoinTenant{name: name, est: est}
}

// Name returns the tenant's routing name.
func (jt *JoinTenant) Name() string { return jt.name }

// Estimator returns the underlying join estimator.
func (jt *JoinTenant) Estimator() *neurocard.Estimator { return jt.est }

// joinLabel renders the schema for listings: "customers⋈orders⋈items".
func (jt *JoinTenant) joinLabel() string {
	return strings.Join(jt.est.TableNames(), "⋈")
}

// handleEstimate answers one ?where= conjunction over the join. Predicates
// parse against the layout table, so columns are named table.column and may
// span any subset of the schema's tables; the estimate is the cardinality of
// the spanned sub-join.
func (jt *JoinTenant) handleEstimate(w http.ResponseWriter, r *http.Request) {
	where := r.FormValue("where")
	if where == "" {
		http.Error(w, "missing ?where= conjunction", http.StatusBadRequest)
		return
	}
	lt := jt.est.LayoutTable()
	q, err := query.ParseWhere(where, lt)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad query %q: %v", where, err), http.StatusBadRequest)
		return
	}
	card, stderr, err := jt.est.EstimateQuery(q)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, neurocard.ErrEstimateFailed) {
			code = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), code)
		return
	}
	resp := EstimateResponse{
		Query:        q.String(lt),
		Card:         card,
		Source:       "model",
		ModelVersion: jt.est.ModelVersion(),
		StdErr:       stderr,
	}
	if js := jt.est.JoinSize(); js > 0 {
		resp.Sel = card / float64(js)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// JoinAppendResponse is the JSON shape of one POST append to a join tenant.
type JoinAppendResponse struct {
	Table     string          `json:"table"`
	Appended  int             `json:"appended"`
	TotalRows int             `json:"total_rows"`
	Drift     neurocard.Drift `json:"drift"`
}

// handleAppend ingests CSV rows (no header) into one base table, named by
// ?table=. Appends are copy-on-write against the serving snapshot; they join
// the estimate after the drift-triggered refresh retrains and swaps.
func (jt *JoinTenant) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST CSV rows (no header) to /append?table=<base table>", http.StatusMethodNotAllowed)
		return
	}
	tableName := r.FormValue("table")
	if tableName == "" {
		http.Error(w, "missing ?table= base table name", http.StatusBadRequest)
		return
	}
	cr := csv.NewReader(r.Body)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		http.Error(w, fmt.Sprintf("bad CSV body: %v", err), http.StatusBadRequest)
		return
	}
	if len(rows) == 0 {
		http.Error(w, "empty CSV body", http.StatusBadRequest)
		return
	}
	if err := jt.est.AppendRows(tableName, rows); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	total := 0
	if t := jt.est.Table(tableName); t != nil {
		total = t.NumRows()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(JoinAppendResponse{
		Table:     tableName,
		Appended:  len(rows),
		TotalRows: total,
		Drift:     jt.est.Drift(),
	})
	if jt.onAppend != nil {
		jt.onAppend()
	}
}

func (jt *JoinTenant) handleDrift(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(jt.est.Drift())
}

func (jt *JoinTenant) handleModels(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Active   uint64   `json:"active"`
		JoinSize int64    `json:"join_size"`
		Columns  []string `json:"columns"`
	}{Active: jt.est.ModelVersion(), JoinSize: jt.est.JoinSize(), Columns: jt.est.Columns()})
}

// health assembles the join tenant's health reading: a loaded model is
// healthy; refresh-in-progress and staleness are advisory, as for
// single-table tenants.
func (jt *JoinTenant) health() HealthResponse {
	return HealthResponse{
		Status:       "ok",
		ModelVersion: jt.est.ModelVersion(),
		Refreshing:   jt.refreshing.Load(),
		StaleModel:   jt.est.Drift().Stale,
	}
}

func (jt *JoinTenant) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(jt.health())
}

func (jt *JoinTenant) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ReadyResponse{Ready: true, State: "healthy"})
}

// AddJoin registers a join tenant. Names share one namespace with
// single-table tenants; single-table tenants win route lookups, so a
// duplicate in either registry is rejected.
func (s *Server) AddJoin(jt *JoinTenant) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if jt.name == "" {
		return fmt.Errorf("server: join tenant has no name")
	}
	if _, dup := s.tenants[jt.name]; dup {
		return fmt.Errorf("server: duplicate tenant %q", jt.name)
	}
	if _, dup := s.joins[jt.name]; dup {
		return fmt.Errorf("server: duplicate join tenant %q", jt.name)
	}
	if s.joins == nil {
		s.joins = make(map[string]*JoinTenant)
	}
	s.joins[jt.name] = jt
	s.jorder = append(s.jorder, jt.name)
	return nil
}

// JoinTenant returns the named join tenant (nil if unknown).
func (s *Server) JoinTenant(name string) *JoinTenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.joins[name]
}

// snapshotJoins copies the join-tenant list for lock-free iteration.
func (s *Server) snapshotJoins() []*JoinTenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JoinTenant, 0, len(s.jorder))
	for _, name := range s.jorder {
		out = append(out, s.joins[name])
	}
	return out
}

// kickJoinRefresh starts a background retrain-and-swap for one join tenant
// when its drift monitor says the model is stale and no refresh is running.
// The refresh inherits the Start context, like single-table refreshes.
func (s *Server) kickJoinRefresh(jt *JoinTenant) {
	if !jt.est.ShouldRefresh() || !jt.refreshing.CompareAndSwap(false, true) {
		return
	}
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s.refreshWG.Add(1)
	go func() {
		defer s.refreshWG.Done()
		defer jt.refreshing.Store(false)
		if err := jt.est.Refresh(ctx); err != nil {
			s.logf("lifecycle[%s]: join refresh: %v", jt.name, err)
			return
		}
		s.logf("lifecycle[%s]: swapped in join model version %d (join size %d)",
			jt.name, jt.est.ModelVersion(), jt.est.JoinSize())
	}()
}
