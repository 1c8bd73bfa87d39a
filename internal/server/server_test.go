package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	naru "repro"
	"repro/internal/made"
	"repro/internal/query"
	"repro/internal/table"
)

// makeTable builds a small correlated 3-column table; different seeds give
// different data distributions (different tenants).
func makeTable(t *testing.T, seed int64, rows int) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := table.NewBuilder(fmt.Sprintf("t%d", seed), []string{"a", "b", "c"})
	for i := 0; i < rows; i++ {
		a := rng.Intn(6)
		bb := (a*2 + rng.Intn(2)) % 9
		c := (a + bb) % 4
		if err := b.AppendRow([]string{strconv.Itoa(a), strconv.Itoa(bb), strconv.Itoa(c)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// makeEstimator wraps an untrained MADE over the table in an estimator —
// determinism and routing contracts don't need trained weights. The same
// (table, modelSeed) always yields bit-identical serving behavior.
func makeEstimator(tbl *table.Table, modelSeed int64, reg *naru.Metrics) *naru.Estimator {
	cfg := naru.DefaultConfig()
	cfg.Samples = 300
	cfg.Seed = 3
	cfg.Metrics = reg
	m := made.New(tbl.DomainSizes(), made.Config{
		HiddenSizes: []int{32, 32}, EmbedThreshold: 64, EmbedDim: 8, Seed: modelSeed,
	})
	return naru.NewFromModel(m, tbl, cfg)
}

// startServer wraps tenants in a Server, starts it, and returns the base URL.
func startServer(t *testing.T, opts Options, tenants ...*Tenant) (*Server, string) {
	t.Helper()
	s := New(opts)
	for _, tn := range tenants {
		if err := s.Add(tn); err != nil {
			t.Fatal(err)
		}
	}
	s.Start(context.Background())
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv.URL
}

// fetchJSON fetches rawURL and decodes the body into out. out is decoded
// into fresh memory by the callers (omitempty fields would otherwise keep
// stale values when a struct is reused across fetches).
func fetchJSON(t *testing.T, rawURL string, out any) int {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", rawURL, err)
		}
	}
	return resp.StatusCode
}

// getEstimate fetches one estimate into a FRESH response struct — Cached and
// the other omitempty fields would silently keep stale values if a struct
// were reused across decodes.
func getEstimate(t *testing.T, rawURL string) (EstimateResponse, int) {
	t.Helper()
	var er EstimateResponse
	code := fetchJSON(t, rawURL, &er)
	return er, code
}

func estimateURL(base, tenant, where string) string {
	if tenant == "" {
		return base + "/estimate?where=" + url.QueryEscape(where)
	}
	return base + "/v1/" + tenant + "/estimate?where=" + url.QueryEscape(where)
}

// TestServerMultiTenantE2E is the acceptance drive: two tenants with
// different data and models served concurrently from one process, answers
// bit-identical to dedicated single-tenant servers, legacy routes aliasing
// the default tenant's cache, independent hot-swaps and append-driven epoch
// bumps, tenant-labelled metrics, and aggregate readiness.
func TestServerMultiTenantE2E(t *testing.T) {
	const qA, qB = "a>=1 AND c<3", "b=4"
	reg := naru.NewMetrics()

	tblA := makeTable(t, 1, 1200)
	estA := makeEstimator(tblA, 5, reg.WithLabel("tenant", "alpha"))
	if err := estA.EnableLifecycle(tblA, naru.LifecycleConfig{
		RefreshAfter: 100000, RegistryDir: t.TempDir(),
	}); err != nil {
		t.Fatal(err)
	}
	alpha := NewTenant("alpha", estA, tblA, TenantOptions{
		Metrics: reg.WithLabel("tenant", "alpha"),
	})

	tblB := makeTable(t, 2, 900)
	estB := makeEstimator(tblB, 9, reg.WithLabel("tenant", "beta"))
	beta := NewTenant("beta", estB, tblB, TenantOptions{
		Metrics: reg.WithLabel("tenant", "beta"),
		Breaker: &naru.BreakerOptions{Threshold: 3, ProbeInterval: time.Hour},
	})

	_, multi := startServer(t, Options{Metrics: reg}, alpha, beta)

	// Dedicated single-tenant servers over identically-seeded estimators: the
	// bit-identity references.
	_, soloA := startServer(t, Options{}, NewTenant("alpha", makeEstimator(makeTable(t, 1, 1200), 5, nil), makeTable(t, 1, 1200), TenantOptions{}))
	_, soloB := startServer(t, Options{}, NewTenant("beta", makeEstimator(makeTable(t, 2, 900), 9, nil), makeTable(t, 2, 900), TenantOptions{}))

	gotA, code := getEstimate(t, estimateURL(multi, "alpha", qA))
	if code != http.StatusOK {
		t.Fatalf("alpha estimate: %d", code)
	}
	gotB, code := getEstimate(t, estimateURL(multi, "beta", qB))
	if code != http.StatusOK {
		t.Fatalf("beta estimate: %d", code)
	}
	if gotA.Source != "model" || gotB.Source != "model" || gotA.Cached || gotB.Cached {
		t.Fatalf("first answers: alpha %+v beta %+v", gotA, gotB)
	}
	want, _ := getEstimate(t, estimateURL(soloA, "", qA))
	if want.Sel != gotA.Sel || want.StdErr != gotA.StdErr || want.Samples != gotA.Samples || want.Card != gotA.Card {
		t.Fatalf("alpha diverges from dedicated server: multi %+v solo %+v", gotA, want)
	}
	want, _ = getEstimate(t, estimateURL(soloB, "", qB))
	if want.Sel != gotB.Sel || want.StdErr != gotB.StdErr || want.Samples != gotB.Samples || want.Card != gotB.Card {
		t.Fatalf("beta diverges from dedicated server: multi %+v solo %+v", gotB, want)
	}
	if gotA.Sel == gotB.Sel && gotA.Card == gotB.Card {
		t.Fatalf("tenants answered identically — are they isolated? %+v", gotA)
	}

	// Same query again: replayed from the tenant cache, bit-identical fields.
	hit, _ := getEstimate(t, estimateURL(multi, "alpha", qA))
	if !hit.Cached || hit.Sel != gotA.Sel || hit.StdErr != gotA.StdErr || hit.Samples != gotA.Samples {
		t.Fatalf("alpha cache replay: %+v, want cached copy of %+v", hit, gotA)
	}

	// Legacy routes alias the default tenant (alpha, first added) — same
	// canonical key, same cache, so this is a hit too.
	hit, _ = getEstimate(t, estimateURL(multi, "", qA))
	if !hit.Cached || hit.Sel != gotA.Sel {
		t.Fatalf("legacy route answer %+v, want alpha's cached %+v", hit, gotA)
	}

	// Hot-swap beta only: its epoch bumps (no stale cache served), alpha's
	// cache is untouched.
	estB.InstallVersion(made.New(tblB.DomainSizes(), made.Config{
		HiddenSizes: []int{32, 32}, EmbedThreshold: 64, EmbedDim: 8, Seed: 77,
	}), tblB, int64(tblB.NumRows()), 2)
	swapped, _ := getEstimate(t, estimateURL(multi, "beta", qB))
	if swapped.Cached || swapped.ModelVersion != 2 {
		t.Fatalf("post-swap beta answer %+v, want uncached at version 2", swapped)
	}
	hit, _ = getEstimate(t, estimateURL(multi, "beta", qB))
	if !hit.Cached || hit.Sel != swapped.Sel || hit.ModelVersion != 2 {
		t.Fatalf("post-swap beta replay %+v, want cached copy of %+v", hit, swapped)
	}
	hit, _ = getEstimate(t, estimateURL(multi, "alpha", qA))
	if !hit.Cached || hit.ModelVersion != 1 || hit.Sel != gotA.Sel {
		t.Fatalf("beta's swap disturbed alpha: %+v", hit)
	}

	// Append to alpha: the row-count epoch component bumps, so the next
	// estimate recomputes instead of replaying the pre-append answer.
	resp, err := http.Post(multi+"/v1/alpha/append", "text/csv", strings.NewReader("1,2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	var app AppendResponse
	if err := json.NewDecoder(resp.Body).Decode(&app); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || app.Appended != 1 || app.TotalRows != tblA.NumRows()+1 {
		t.Fatalf("alpha append: %+v (status %d)", app, resp.StatusCode)
	}
	hit, _ = getEstimate(t, estimateURL(multi, "alpha", qA))
	if hit.Cached {
		t.Fatalf("append did not invalidate alpha's cache: %+v", hit)
	}
	// Beta has no lifecycle: its append answers 501, and its cache stays warm.
	resp, err = http.Post(multi+"/v1/beta/append", "text/csv", strings.NewReader("1,2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("beta append without lifecycle: %d, want 501", resp.StatusCode)
	}
	hit, _ = getEstimate(t, estimateURL(multi, "beta", qB))
	if !hit.Cached {
		t.Fatalf("alpha's append disturbed beta's cache: %+v", hit)
	}

	// Tenant-labelled metrics in the one shared registry.
	snap := reg.Snapshot()
	for _, name := range []string{
		`naru_queries_total{tenant="alpha"}`,
		`naru_queries_total{tenant="beta"}`,
		`naru_cache_hits_total{tenant="alpha"}`,
		`naru_cache_misses_total{tenant="beta"}`,
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("metric %s missing or zero; have %v", name, snap.Counters)
		}
	}
	if snap.Gauges["naru_tenants"] != 2 {
		t.Errorf("naru_tenants gauge %v, want 2", snap.Gauges["naru_tenants"])
	}

	// Listing, routing, and aggregate health.
	var listing struct {
		Default string       `json:"default"`
		Tenants []tenantInfo `json:"tenants"`
	}
	if code := fetchJSON(t, multi+"/v1/tenants", &listing); code != http.StatusOK ||
		listing.Default != "alpha" || len(listing.Tenants) != 2 {
		t.Fatalf("/v1/tenants: %+v", listing)
	}
	if code := fetchJSON(t, estimateURL(multi, "ghost", qA), nil); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d, want 404", code)
	}
	var health HealthResponse
	if code := fetchJSON(t, multi+"/healthz", &health); code != http.StatusOK ||
		health.Status != "ok" || len(health.Tenants) != 2 {
		t.Fatalf("/healthz aggregate: %d %+v", code, health)
	}

	// One tripped tenant takes process readiness down; per-tenant probes
	// still distinguish the healthy one.
	var ready ReadyResponse
	if code := fetchJSON(t, multi+"/readyz", &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("pre-trip readyz: %d %+v", code, ready)
	}
	beta.Breaker().Trip()
	if code := fetchJSON(t, multi+"/readyz", &ready); code != http.StatusServiceUnavailable ||
		ready.Ready || ready.State != "fallback_only" ||
		ready.Tenants["alpha"].Ready == false || ready.Tenants["beta"].Ready == true {
		t.Fatalf("post-trip readyz: %d %+v", code, ready)
	}
	if code := fetchJSON(t, multi+"/v1/alpha/readyz", &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("alpha readyz after beta trip: %d %+v", code, ready)
	}
	if code := fetchJSON(t, multi+"/v1/beta/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("beta readyz after trip: %d", code)
	}
}

// TestServerAddValidation: unnamed and duplicate tenants are rejected; the
// first tenant becomes the default until SetDefault overrides it.
func TestServerAddValidation(t *testing.T) {
	tbl := makeTable(t, 1, 200)
	s := New(Options{})
	if err := s.Add(NewTenant("", makeEstimator(tbl, 5, nil), tbl, TenantOptions{})); err == nil {
		t.Fatal("unnamed tenant accepted")
	}
	a := NewTenant("a", makeEstimator(tbl, 5, nil), tbl, TenantOptions{})
	if err := s.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(NewTenant("a", makeEstimator(tbl, 5, nil), tbl, TenantOptions{})); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	b := NewTenant("b", makeEstimator(tbl, 6, nil), tbl, TenantOptions{})
	if err := s.Add(b); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.Default() != a {
		t.Fatal("first-added tenant is not the default")
	}
	if err := s.SetDefault("ghost"); err == nil {
		t.Fatal("unknown default accepted")
	}
	if err := s.SetDefault("b"); err != nil || s.Default() != b {
		t.Fatalf("SetDefault(b): %v", err)
	}
}

// TestServerNoTenants: an empty server serves 503s, not panics.
func TestServerNoTenants(t *testing.T) {
	_, base := startServer(t, Options{})
	if code := fetchJSON(t, estimateURL(base, "", "a=1"), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("legacy estimate with no tenants: %d, want 503", code)
	}
	var health HealthResponse
	if code := fetchJSON(t, base+"/healthz", &health); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no tenants: %d, want 503", code)
	}
	var ready ReadyResponse
	if code := fetchJSON(t, base+"/readyz", &ready); code != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("readyz with no tenants: %d %+v", code, ready)
	}
	if code := fetchJSON(t, base+"/livez", nil); code != http.StatusOK {
		t.Fatalf("livez: %d, want 200 regardless of tenants", code)
	}
}

// TestBuildTenantErrors: config-driven construction wraps failures with the
// tenant name and distinguishes the missing-file cases.
func TestBuildTenantErrors(t *testing.T) {
	_, err := BuildTenant(TenantConfig{Name: "x", CSV: "/nonexistent/t.csv", Model: "m.naru"}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), `tenant "x"`) || !strings.Contains(err.Error(), "csv file") {
		t.Fatalf("missing csv: %v", err)
	}
}

// contractKind is one tenant kind as the serving-contract test drives it.
// fresh returns a new estimator seeded exactly like every other call's, with
// its boot table (nil for a join); swap installs version 2.
type contractKind struct {
	name  string
	where string // a query that samples (never enumerates)
	fresh func(t *testing.T) (*naru.Estimator, *table.Table)
	swap  func(t *testing.T, est *naru.Estimator)
}

// contractKinds are the two tenant kinds: a single table, and a 3-table join
// served through naru.ServeJoin.
func contractKinds() []contractKind {
	return []contractKind{
		{
			name:  "table",
			where: "a>=1 AND c>=1", // 19·20·19 points: above the enumeration threshold
			fresh: func(t *testing.T) (*naru.Estimator, *table.Table) {
				tbl := wideTable(t)
				return makeEstimator(tbl, 5, nil), tbl
			},
			swap: func(t *testing.T, est *naru.Estimator) {
				snap, rows := est.Snapshot()
				est.InstallVersion(made.New(snap.DomainSizes(), made.Config{
					HiddenSizes: []int{32, 32}, EmbedThreshold: 64, EmbedDim: 8, Seed: 77,
				}), snap, rows, 2)
			},
		},
		{
			name:  "join",
			where: "customers.region = east AND orders.amount >= 30", // scaled: always samples
			fresh: func(t *testing.T) (*naru.Estimator, *table.Table) {
				return naru.ServeJoin(makeJoinEstimator(t)), nil
			},
			swap: func(t *testing.T, est *naru.Estimator) {
				if err := est.Join().Refresh(context.Background()); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
}

// wideTable is makeTable's correlation over three 20-value columns, so a
// two-predicate query samples instead of enumerating.
func wideTable(t *testing.T) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	b := table.NewBuilder("wide", []string{"a", "b", "c"})
	for i := 0; i < 1200; i++ {
		a := rng.Intn(20)
		bb := (a + rng.Intn(3)) % 20
		c := (a + bb) % 20
		if err := b.AppendRow([]string{strconv.Itoa(a), strconv.Itoa(bb), strconv.Itoa(c)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// serveOne answers one estimate through the tenant's handler under ctx.
func serveOne(t *testing.T, ctx context.Context, tn *Tenant, where string) (EstimateResponse, int) {
	t.Helper()
	s := New(Options{})
	if err := s.Add(tn); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	req := httptest.NewRequest(http.MethodGet, estimateURL("", tn.Name(), where), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var er EstimateResponse
	if err := json.NewDecoder(rec.Body).Decode(&er); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return er, rec.Code
}

// TestTenantServingContract: single-table and join tenants get one serving
// contract: a per-query deadline and a cancelled client stop the walk
// instead of answering from the model, a repeated query replays from the
// result cache, a hot-swap ends the replay, and a full-budget answer is
// bit-identical to a one-worker batch call on a fresh estimator: the
// reference walk (EstimateBatchCtx, one CondBatch block per chunk) for a
// single table, SelectivityBatchCtx, which carries the scale columns, for a
// join.
func TestTenantServingContract(t *testing.T) {
	for _, k := range contractKinds() {
		t.Run(k.name, func(t *testing.T) {
			est, tbl := k.fresh(t)
			tn := NewTenant(k.name, est, tbl, TenantOptions{Serve: naru.ServeOptions{Deadline: time.Nanosecond}})
			er, code := serveOne(t, context.Background(), tn, k.where)
			if code != http.StatusInternalServerError || er.Source != "failed" || !strings.Contains(er.Err, "deadline") {
				t.Fatalf("expired deadline answered %d %+v, want a failed deadline answer", code, er)
			}

			est, tbl = k.fresh(t)
			tn = NewTenant(k.name, est, tbl, TenantOptions{})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			er, code = serveOne(t, ctx, tn, k.where)
			if code != http.StatusInternalServerError || er.Source != "failed" || !strings.Contains(er.Err, "canceled") {
				t.Fatalf("cancelled client answered %d %+v, want a failed cancel answer", code, er)
			}

			est, tbl = k.fresh(t)
			tn = NewTenant(k.name, est, tbl, TenantOptions{})
			_, base := startServer(t, Options{}, tn)
			served, code := getEstimate(t, estimateURL(base, k.name, k.where))
			if code != http.StatusOK || served.Source != "model" || served.Cached || served.Samples == 0 {
				t.Fatalf("first answer %d %+v, want an uncached sampled model answer", code, served)
			}
			hit, _ := getEstimate(t, estimateURL(base, k.name, k.where))
			if !hit.Cached || hit.Sel != served.Sel || hit.StdErr != served.StdErr || hit.Card != served.Card {
				t.Fatalf("replay %+v, want a cached copy of %+v", hit, served)
			}
			k.swap(t, est)
			swapped, _ := getEstimate(t, estimateURL(base, k.name, k.where))
			if swapped.Cached || swapped.ModelVersion != 2 {
				t.Fatalf("after the swap %+v, want an uncached answer at version 2", swapped)
			}

			ref, _ := k.fresh(t)
			snap, _ := ref.Snapshot()
			q, err := query.ParseWhere(k.where, snap)
			if err != nil {
				t.Fatal(err)
			}
			var want naru.Result
			if ref.Join() == nil {
				reg, err := naru.Compile(q, snap)
				if err != nil {
					t.Fatal(err)
				}
				want = ref.EstimateBatchCtx(context.Background(), []*naru.Region{reg}, naru.ServeOptions{Workers: 1})[0]
			} else {
				results, err := ref.SelectivityBatchCtx(context.Background(), []naru.Query{q}, naru.ServeOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				want = results[0]
			}
			if served.Sel != want.Sel || served.StdErr != want.StdErr || served.Samples != want.Samples {
				t.Fatalf("served answer %+v differs from a one-worker batch call %+v", served, want)
			}
		})
	}
}

// TestTenantBoundsWorkInFlight: a tenant built with default options walks at
// most MaxInFlight queries at once. With one slot and the walk held open,
// three concurrent estimates enter the walk one after another, and all three
// answer 200 from the model once released.
func TestTenantBoundsWorkInFlight(t *testing.T) {
	tbl := wideTable(t)
	var inside atomic.Int32
	entered := make(chan struct{}, 3)
	release := make(chan struct{})
	hook := func(int) {
		if n := inside.Add(1); n > 1 {
			t.Errorf("%d queries inside the walk at once, want at most 1", n)
		}
		entered <- struct{}{}
		<-release
		inside.Add(-1)
	}
	tn := NewTenant("t", makeEstimator(tbl, 5, nil), tbl, TenantOptions{
		MaxInFlight: 1, Serve: naru.ServeOptions{BeforeQuery: hook},
	})
	_, base := startServer(t, Options{}, tn)

	wheres := []string{"a>=1 AND c>=1", "a>=2 AND c>=1", "a>=1 AND c>=2"}
	type answer struct {
		er   EstimateResponse
		code int
		err  error
	}
	answers := make(chan answer, len(wheres))
	for _, where := range wheres {
		go func(where string) {
			resp, err := http.Get(estimateURL(base, "t", where))
			if err != nil {
				answers <- answer{err: err}
				return
			}
			defer resp.Body.Close()
			var er EstimateResponse
			err = json.NewDecoder(resp.Body).Decode(&er)
			answers <- answer{er, resp.StatusCode, err}
		}(where)
	}
	for range wheres {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("no query entered the walk")
		}
		// Give the other requests time to arrive: they must wait for the
		// slot, not walk beside the held query.
		time.Sleep(50 * time.Millisecond)
		release <- struct{}{}
	}
	for range wheres {
		a := <-answers
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.code != http.StatusOK || a.er.Source != "model" {
			t.Fatalf("answer %d %+v, want 200 from the model", a.code, a.er)
		}
	}
}

// lowerAppendLimit sets the /append body limit to n bytes for one test.
func lowerAppendLimit(t *testing.T, n int64) {
	prev := maxAppendBytes
	maxAppendBytes = n
	t.Cleanup(func() { maxAppendBytes = prev })
}

// TestAppendTooLargeIs413: a single-table /append body past the limit
// answers 413 and appends none of its rows; a body within it appends.
func TestAppendTooLargeIs413(t *testing.T) {
	tbl := makeTable(t, 1, 400)
	est := makeEstimator(tbl, 5, nil)
	if err := est.EnableLifecycle(tbl, naru.LifecycleConfig{RefreshAfter: 100000, RegistryDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	_, srv := startServer(t, Options{}, NewTenant("alpha", est, tbl, TenantOptions{}))
	lowerAppendLimit(t, 16)
	if code := postCSV(t, srv+"/v1/alpha/append", strings.Repeat("1,2,3\n", 10), nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("60-byte append past a 16-byte limit: status %d, want 413", code)
	}
	if rows := est.Lifecycle().Snapshot().NumRows(); rows != 400 {
		t.Fatalf("rejected append left %d rows, want 400", rows)
	}
	var ar AppendResponse
	if code := postCSV(t, srv+"/v1/alpha/append", "1,2,3\n", &ar); code != http.StatusOK || ar.Appended != 1 {
		t.Fatalf("append within the limit: status %d %+v", code, ar)
	}
}
