package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	naru "repro"
	"repro/internal/query"
	"repro/internal/server"
)

// buildServeFixture trains a tiny model and loads it back the way cmdServe
// does, with a metrics registry attached.
func buildServeFixture(t *testing.T) (*naru.Estimator, *naru.Table, *naru.Metrics) {
	t.Helper()
	dir := t.TempDir()
	csv := writeTestCSV(t, dir)
	model := filepath.Join(dir, "model.naru")
	if code, _, stderr := runCLI("train", "-csv", csv, "-out", model,
		"-epochs", "1", "-hidden", "8,8", "-samples", "64"); code != 0 {
		t.Fatalf("train: %s", stderr)
	}
	tbl, err := loadTable(csv)
	if err != nil {
		t.Fatal(err)
	}
	cfg := naru.DefaultConfig()
	cfg.Samples = 64
	cfg.Metrics = naru.NewMetrics()
	est, err := openModel(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return est, tbl, cfg.Metrics
}

// newTenantHandler wraps one tenant in a single-tenant server — the legacy
// routes serve it — and returns the mux, shutting the server down with the
// test.
func newTenantHandler(t *testing.T, tn *server.Tenant) http.Handler {
	t.Helper()
	s := server.New(server.Options{})
	if err := s.Add(tn); err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	t.Cleanup(s.Close)
	return s.Handler()
}

// TestEstimateHandler drives the serve mux through httptest: good queries
// come back as JSON with model provenance, bad ones as 400s, and every served
// query lands in the metrics registry.
func TestEstimateHandler(t *testing.T) {
	est, tbl, metrics := buildServeFixture(t)
	tn := server.NewTenant("default", est, tbl, server.TenantOptions{
		Serve: naru.ServeOptions{Fallback: naru.FallbackObserved(tbl, metrics)},
	})
	srv := httptest.NewServer(newTenantHandler(t, tn))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/estimate?where=" + url.QueryEscape("state=NY AND qty<=30"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got server.EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Sel < 0 || got.Sel > 1 || got.Source != "model" {
		t.Fatalf("response %+v", got)
	}
	if !strings.Contains(got.Query, "state") {
		t.Fatalf("echoed query %q", got.Query)
	}

	for _, bad := range []string{"/estimate", "/estimate?where=nosuchcol=1"} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}

	snap := metrics.Snapshot()
	if snap.Counters["naru_queries_total"] != 1 {
		t.Fatalf("naru_queries_total = %d, want 1 (bad queries must not count)",
			snap.Counters["naru_queries_total"])
	}
	if snap.TraceTotal != 1 {
		t.Fatalf("trace total = %d, want 1", snap.TraceTotal)
	}
}

// TestEstimateHandlerCoalesced: /estimate answers through the tenant's
// admission gate with the same estimate fields, bit for bit, as the
// reference walk (EstimateBatchCtx, one CondBatch block per chunk) at one
// worker on an identically trained model.
func TestEstimateHandlerCoalesced(t *testing.T) {
	const where = "state=NY AND qty<=30"
	est, tbl, _ := buildServeFixture(t)
	q, err := query.ParseWhere(where, tbl)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := naru.Compile(q, tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := est.EstimateBatchCtx(context.Background(), []*naru.Region{reg}, naru.ServeOptions{Workers: 1})[0]

	est2, tbl2, _ := buildServeFixture(t)
	srv := httptest.NewServer(newTenantHandler(t, server.NewTenant("default", est2, tbl2, server.TenantOptions{})))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/estimate?where=" + url.QueryEscape(where))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got server.EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Source != "model" || got.Err != "" {
		t.Fatalf("served response %+v", got)
	}
	if got.Sel != want.Sel || got.StdErr != want.StdErr || got.Samples != want.Samples {
		t.Fatalf("served answer %+v differs from EstimateBatchCtx at one worker %+v", got, want)
	}
	if got.StopReason != "" {
		t.Fatalf("full-budget answer carries stop reason %q", got.StopReason)
	}
}

// TestServeTenantsFlagValidation: -tenants and -csv are mutually exclusive,
// and serve without either is a usage error.
func TestServeTenantsFlagValidation(t *testing.T) {
	if err := cmdServe([]string{}, os.Stdout, os.Stderr); err == nil ||
		!strings.Contains(err.Error(), "-csv or -tenants") {
		t.Fatalf("no inputs: err %v, want -csv or -tenants required", err)
	}
	if err := cmdServe([]string{"-tenants", "x.json", "-csv", "y.csv"}, os.Stdout, os.Stderr); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("both inputs: err %v, want mutually-exclusive error", err)
	}
}

// TestMetricsAddrDeterminism: the estimate subcommand must print
// byte-identical stdout with and without -metrics-addr — observability can
// never perturb estimates, and the metrics banner goes to stderr.
func TestMetricsAddrDeterminism(t *testing.T) {
	dir := t.TempDir()
	csv := writeTestCSV(t, dir)
	model := filepath.Join(dir, "model.naru")
	if code, _, stderr := runCLI("train", "-csv", csv, "-out", model,
		"-epochs", "1", "-hidden", "8,8", "-samples", "64"); code != 0 {
		t.Fatalf("train: %s", stderr)
	}
	workload := filepath.Join(dir, "w.txt")
	if err := os.WriteFile(workload, []byte("state=NY\nqty<=30\nstate=CA AND qty>=20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"estimate", "-csv", csv, "-model", model, "-queries", workload, "-workers", "2"}
	code, plain, _ := runCLI(args...)
	if code != 0 {
		t.Fatalf("estimate: exit %d", code)
	}
	code, observed, stderr := runCLI(append(args, "-metrics-addr", "127.0.0.1:0")...)
	if code != 0 {
		t.Fatalf("estimate with metrics: exit %d", code)
	}
	if !strings.Contains(stderr, "metrics on http://") {
		t.Fatalf("stderr %q missing metrics banner", stderr)
	}
	// The workload report includes wall-clock throughput; compare only the
	// per-query estimate lines, which must match byte for byte.
	stripTiming := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "queries in") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if stripTiming(plain) != stripTiming(observed) {
		t.Fatalf("stdout diverged with -metrics-addr:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed)
	}
}

// TestServeDisconnectsStalledClients runs `naru serve` with its HTTP
// timeouts shortened and stalls three clients: one mid-headers and one
// mid-/append body on the serving address, one mid-headers on the metrics
// address. Each is disconnected within a few timeouts, the /append client
// after a 408. Without the timeouts each would hold its handler goroutine,
// and the body read so far, indefinitely.
func TestServeDisconnectsStalledClients(t *testing.T) {
	defer func(h, r, i time.Duration) {
		readHeaderTimeout, readTimeout, idleTimeout = h, r, i
	}(readHeaderTimeout, readTimeout, idleTimeout)
	readHeaderTimeout, readTimeout, idleTimeout = 200*time.Millisecond, 400*time.Millisecond, time.Second

	dir := t.TempDir()
	csv := writeTestCSV(t, dir)
	model := filepath.Join(dir, "model.naru")
	if code, _, stderr := runCLI("train", "-csv", csv, "-out", model,
		"-epochs", "1", "-hidden", "8,8", "-samples", "64"); code != 0 {
		t.Fatalf("train: %s", stderr)
	}
	// cmdServe announces the serving address on stdout and the metrics
	// address on stderr; both are drained so its writes never block.
	announced := func(r io.Reader, prefix string) <-chan string {
		c := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(r)
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
					host, _, _ := strings.Cut(rest, "/")
					c <- host
				}
			}
		}()
		return c
	}
	outR, outW := io.Pipe()
	errR, errW := io.Pipe()
	serveAddr := announced(outR, "serving on http://")
	metricsAddr := announced(errR, "metrics on http://")
	done := make(chan error, 1)
	go func() {
		err := cmdServe([]string{"-csv", csv, "-model", model, "-samples", "64",
			"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-refresh-after", "1000000"}, outW, errW)
		outW.Close()
		errW.Close()
		done <- err
	}()
	addrs := map[string]string{}
	for len(addrs) < 2 {
		select {
		case a := <-serveAddr:
			addrs["serve"] = a
		case a := <-metricsAddr:
			addrs["metrics"] = a
		case err := <-done:
			t.Fatalf("serve exited before listening: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("serve never announced both addresses")
		}
	}

	// stall sends the start of a request and waits for the server to close
	// the connection, returning what it answered first.
	stall := func(addr, partial string) string {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, partial); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("a client stalled on %q is still connected after 5s: %v", partial, err)
		}
		return string(reply)
	}
	midHeaders := "GET /estimate?where=qty%3C%3D30 HTTP/1.1\r\nHost: naru\r\n"
	if reply := stall(addrs["serve"], midHeaders); reply != "" {
		t.Fatalf("a client stalled mid-headers got %q, want the connection closed", reply)
	}
	if reply := stall(addrs["metrics"], "GET /metrics HTTP/1.1\r\n"); reply != "" {
		t.Fatalf("a metrics client stalled mid-headers got %q, want the connection closed", reply)
	}
	midBody := "POST /append HTTP/1.1\r\nHost: naru\r\nContent-Type: text/csv\r\nContent-Length: 1048576\r\n\r\nNY,10\n"
	if reply := stall(addrs["serve"], midBody); !strings.HasPrefix(reply, "HTTP/1.1 408 ") {
		t.Fatalf("a client stalled mid-body got %q, want a 408 and the connection closed", reply)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain after SIGTERM")
	}
}
