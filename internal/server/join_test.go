package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	naru "repro"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/made"
	"repro/internal/neurocard"
	"repro/internal/table"
)

// makeJoinEstimator trains a tiny 3-table join estimator: customers ⋈ orders
// ⋈ items, referentially complete, with a low refresh threshold so appends
// trip the drift monitor quickly.
func makeJoinEstimator(t *testing.T) *neurocard.Estimator {
	t.Helper()
	cb := table.NewBuilder("customers", []string{"cid", "region"})
	ob := table.NewBuilder("orders", []string{"oid", "cid", "amount"})
	ib := table.NewBuilder("items", []string{"oid", "price"})
	regions := []string{"east", "west", "north"}
	oid := 0
	for cid := 0; cid < 40; cid++ {
		mustRow(t, cb, []string{strconv.Itoa(cid), regions[cid%3]})
		for o := 0; o < 1+cid%3; o++ {
			mustRow(t, ob, []string{strconv.Itoa(oid), strconv.Itoa(cid), strconv.Itoa(10 * (1 + oid%5))})
			for i := 0; i < 1+oid%2; i++ {
				mustRow(t, ib, []string{strconv.Itoa(oid), strconv.Itoa(5 * (i + 1))})
			}
			oid++
		}
	}
	sch := &neurocard.Schema{
		Tables: []*table.Table{mustBuild(t, cb), mustBuild(t, ob), mustBuild(t, ib)},
		Edges: []neurocard.Edge{
			{Parent: 0, Child: 1, ParentCol: 0, ChildCol: 1},
			{Parent: 1, Child: 2, ParentCol: 0, ChildCol: 0},
		},
	}
	est, _, err := neurocard.Train(context.Background(), sch, neurocard.Config{
		Hidden: []int{16}, Samples: 300, Seed: 7, Epochs: 2,
		BatchSize: 128, EpochTuples: 1 << 11, LR: 5e-3,
		RefreshFraction: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func mustRow(t *testing.T, b *table.Builder, row []string) {
	t.Helper()
	if err := b.AppendRow(row); err != nil {
		t.Fatal(err)
	}
}

func mustBuild(t *testing.T, b *table.Builder) *table.Table {
	t.Helper()
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// getStatus fetches rawURL and returns only the status code (error responses
// carry plain-text bodies that must not be JSON-decoded).
func getStatus(t *testing.T, rawURL string) int {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// postCSV posts a CSV body and decodes any JSON response into out (nil skips
// decoding), returning the status code.
func postCSV(t *testing.T, rawURL, body string, out any) int {
	t.Helper()
	resp, err := http.Post(rawURL, "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", rawURL, err)
		}
	}
	return resp.StatusCode
}

// TestServerJoinTenantE2E drives a join tenant through the multi-tenant
// routes alongside a single-table tenant: multi-table estimates, per-table
// CSV appends with drift-triggered background refresh, listings, and health.
func TestServerJoinTenantE2E(t *testing.T) {
	est := makeJoinEstimator(t)
	tbl := makeTable(t, 1, 400)
	tn := NewTenant("flat", makeEstimator(tbl, 1, nil), tbl, TenantOptions{})

	s := New(Options{})
	if err := s.Add(tn); err != nil {
		t.Fatal(err)
	}
	if err := s.AddJoin(NewJoinTenant("joined", est)); err != nil {
		t.Fatal(err)
	}
	// Join and single-table tenants share one registry and namespace.
	if err := s.AddJoin(NewJoinTenant("flat", est)); err == nil {
		t.Fatal("AddJoin accepted a name held by a single-table tenant")
	}
	if err := s.AddJoin(NewJoinTenant("joined", est)); err == nil {
		t.Fatal("AddJoin accepted a duplicate join tenant")
	}
	s.Start(context.Background())
	t.Cleanup(s.Close)
	httpSrv := httptest.NewServer(s.Handler())
	t.Cleanup(httpSrv.Close)
	srv := httpSrv.URL

	// Multi-table estimate over the spanned sub-join.
	er, code := getEstimate(t, estimateURL(srv, "joined", "customers.region = east AND orders.amount >= 30"))
	if code != http.StatusOK {
		t.Fatalf("join estimate: status %d", code)
	}
	if er.Card <= 0 || er.ModelVersion != 1 || er.Source != "model" {
		t.Fatalf("join estimate: %+v", er)
	}
	if er.Sel <= 0 || er.Sel > 1 {
		t.Fatalf("join selectivity %v outside (0,1]", er.Sel)
	}
	if !strings.Contains(er.Query, "customers.region") {
		t.Fatalf("canonical query %q lost the table-qualified column", er.Query)
	}

	// Error paths: missing ?where=, unknown column, unknown tenant.
	if code := getStatus(t, estimateURL(srv, "joined", "")); code != http.StatusBadRequest {
		t.Fatalf("empty where: status %d", code)
	}
	if code := getStatus(t, estimateURL(srv, "joined", "bogus.col = 1")); code != http.StatusBadRequest {
		t.Fatalf("unknown column: status %d", code)
	}
	if code := getStatus(t, estimateURL(srv, "nosuch", "customers.region = east")); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d", code)
	}

	// Listings: the join tenant rides /v1/tenants with its join rendering.
	var listing struct {
		Default string       `json:"default"`
		Tenants []tenantInfo `json:"tenants"`
	}
	fetchJSON(t, srv+"/v1/tenants", &listing)
	var joinRow *tenantInfo
	for i := range listing.Tenants {
		if listing.Tenants[i].Name == "joined" {
			joinRow = &listing.Tenants[i]
		}
	}
	if joinRow == nil {
		t.Fatalf("join tenant missing from listing: %+v", listing.Tenants)
	}
	if !strings.Contains(joinRow.Table, "⋈") || int64(joinRow.Rows) != est.JoinSize() {
		t.Fatalf("join listing row: %+v (join size %d)", joinRow, est.JoinSize())
	}

	// Per-tenant and process-level health.
	var hr HealthResponse
	if code := fetchJSON(t, srv+"/v1/joined/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("join healthz: %d %+v", code, hr)
	}
	var rr ReadyResponse
	if code := fetchJSON(t, srv+"/readyz", &rr); code != http.StatusOK || !rr.Ready {
		t.Fatalf("process readyz: %d %+v", code, rr)
	}
	if sub, ok := rr.Tenants["joined"]; !ok || !sub.Ready {
		t.Fatalf("join tenant missing from readyz split: %+v", rr)
	}
	hr = HealthResponse{}
	if code := fetchJSON(t, srv+"/healthz", &hr); code != http.StatusOK {
		t.Fatalf("process healthz: %d", code)
	}
	if _, ok := hr.Tenants["joined"]; !ok {
		t.Fatalf("join tenant missing from healthz split: %+v", hr)
	}

	// Append without ?table= is rejected; unknown table is rejected.
	if code := postCSV(t, srv+"/v1/joined/append", "1,zz\n", nil); code != http.StatusBadRequest {
		t.Fatalf("append without table: status %d", code)
	}
	if code := postCSV(t, srv+"/v1/joined/append?table=nosuch", "1,zz\n", nil); code != http.StatusBadRequest {
		t.Fatalf("append to unknown table: status %d", code)
	}

	// Append enough customers to trip the drift monitor; the server kicks a
	// background refresh that retrains and swaps in version 2.
	var body strings.Builder
	for i := 0; i < 4; i++ {
		body.WriteString(strconv.Itoa(900+i) + ",polar\n")
	}
	var ar JoinAppendResponse
	code = postCSV(t, srv+"/v1/joined/append?table=customers", body.String(), &ar)
	if code != http.StatusOK || ar.Appended != 4 || ar.Table != "customers" || ar.TotalRows != 44 {
		t.Fatalf("append: %d %+v", code, ar)
	}
	if !ar.Drift.Stale {
		t.Fatalf("append did not trip the drift monitor: %+v", ar.Drift)
	}
	deadline := time.Now().Add(20 * time.Second)
	for est.ModelVersion() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background join refresh never swapped in version 2")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The refreshed model serves the extended dictionary.
	if _, code := getEstimate(t, estimateURL(srv, "joined", "customers.region = polar")); code != http.StatusOK {
		t.Fatalf("post-refresh estimate: status %d", code)
	}

	// Models endpoint reflects the swap.
	var mr struct {
		Active   uint64   `json:"active"`
		JoinSize int64    `json:"join_size"`
		Columns  []string `json:"columns"`
	}
	fetchJSON(t, srv+"/v1/joined/models", &mr)
	if mr.Active != est.ModelVersion() || mr.JoinSize != est.JoinSize() || len(mr.Columns) == 0 {
		t.Fatalf("models: %+v", mr)
	}
}

// TestJoinEstimateFailureIs500: a join estimate whose model path fails (here
// an injected fault on the per-query path) is the server's fault and answers
// 500, while a query naming an unknown column stays the caller's fault (400).
func TestJoinEstimateFailureIs500(t *testing.T) {
	s := New(Options{})
	if err := s.AddJoin(NewJoinTenant("joined", makeJoinEstimator(t))); err != nil {
		t.Fatal(err)
	}
	httpSrv := httptest.NewServer(s.Handler())
	t.Cleanup(httpSrv.Close)

	if err := faultinject.ArmString("core.serve.query=error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	if code := getStatus(t, estimateURL(httpSrv.URL, "joined", "customers.region = east")); code != http.StatusInternalServerError {
		t.Fatalf("failed join estimate: status %d, want 500", code)
	}
	if code := getStatus(t, estimateURL(httpSrv.URL, "joined", "customers.nope = east")); code != http.StatusBadRequest {
		t.Fatalf("unknown column: status %d, want 400", code)
	}
	if code := getStatus(t, estimateURL(httpSrv.URL, "joined", "customers.region = east")); code != http.StatusOK {
		t.Fatalf("join estimate after the fault: status %d, want 200", code)
	}
}

// TestJoinCompileErrorIs400: a query that parses but does not compile
// against the join model (a predicate on a fanout column) is the caller's
// error. It answers 400 with the estimate JSON, and however often it
// repeats, the circuit breaker does not count it as a model failure.
func TestJoinCompileErrorIs400(t *testing.T) {
	const bad = "fanout(customers→orders) = 1"
	tn := NewTenant("joined", naru.ServeJoin(makeJoinEstimator(t)), nil, TenantOptions{Breaker: &naru.BreakerOptions{Threshold: 2}})
	_, base := startServer(t, Options{}, tn)
	for i := 0; i < 4; i++ {
		er, code := getEstimate(t, estimateURL(base, "joined", bad))
		if code != http.StatusBadRequest || er.Source != "failed" || !strings.Contains(er.Err, "does not compile") {
			t.Fatalf("request %d: %q answered %d %+v, want 400 with a compile error", i, bad, code, er)
		}
	}
	if s := tn.Breaker().State(); s != naru.StateHealthy {
		t.Fatalf("breaker %v after repeated uncompilable queries, want healthy", s)
	}
	if _, code := getEstimate(t, estimateURL(base, "joined", "customers.region = east")); code != http.StatusOK {
		t.Fatalf("a good query after them answered %d, want 200", code)
	}
}

// poison sets every weight of m to NaN, as a diverged training run saved
// anyway would leave it.
func poison(m *made.Model) {
	for _, p := range m.Params() {
		for i := range p.Val.Data {
			p.Val.Data[i] = float32(math.NaN())
		}
	}
}

// TestBreakerProbeRunsModel: the breaker's recovery probe runs the model, so
// it fails on a tenant whose weights are NaN and passes on a healthy one, for
// both tenant kinds. An unrestricted probe is answered without the model and
// passed on a poisoned tenant.
func TestBreakerProbeRunsModel(t *testing.T) {
	kinds := []struct {
		name  string
		build func(t *testing.T, poisoned bool) (*naru.Estimator, *table.Table)
	}{
		{"table", func(t *testing.T, poisoned bool) (*naru.Estimator, *table.Table) {
			tbl := wideTable(t)
			cfg := naru.DefaultConfig()
			m := made.New(tbl.DomainSizes(), made.Config{HiddenSizes: []int{32, 32}, EmbedThreshold: 64, EmbedDim: 8, Seed: 5})
			if poisoned {
				poison(m)
			}
			return naru.NewFromModel(m, tbl, cfg), tbl
		}},
		{"join", func(t *testing.T, poisoned bool) (*naru.Estimator, *table.Table) {
			je := makeJoinEstimator(t)
			if poisoned {
				je.OnServe(func(s neurocard.Serving) { poison(s.Model) })
			}
			return naru.ServeJoin(je), nil
		}},
	}
	for _, k := range kinds {
		for _, poisoned := range []bool{false, true} {
			est, tbl := k.build(t, poisoned)
			err := NewTenant(k.name, est, tbl, TenantOptions{}).probe(context.Background())
			switch {
			case poisoned && !errors.Is(err, core.ErrNonFinite):
				t.Errorf("%s: probe on a poisoned tenant returned %v, want ErrNonFinite", k.name, err)
			case !poisoned && err != nil:
				t.Errorf("%s: probe on a healthy tenant failed: %v", k.name, err)
			}
		}
	}
}

// TestJoinAppendTooLargeIs413: a join tenant's /append body past the limit
// answers 413 and appends none of its rows.
func TestJoinAppendTooLargeIs413(t *testing.T) {
	est := makeJoinEstimator(t)
	_, srv := startServer(t, Options{}, NewJoinTenant("joined", est))
	lowerAppendLimit(t, 16)
	body := "900,polar\n901,polar\n902,polar\n"
	if code := postCSV(t, srv+"/v1/joined/append?table=customers", body, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("30-byte append past a 16-byte limit: status %d, want 413", code)
	}
	if rows := est.Table("customers").NumRows(); rows != 40 {
		t.Fatalf("rejected append left %d customers, want 40", rows)
	}
}
