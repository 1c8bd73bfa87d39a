package bench

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/estimator"
	"repro/internal/metrics"
	"repro/internal/query"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{DMVRows: 8000, ConvivaRows: 6000, NumQueries: 20, Epochs: 1, Seed: 1, Quiet: true}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.DMVRows == 0 || c.ConvivaRows == 0 || c.NumQueries == 0 || c.Epochs == 0 || c.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestRunWorkloadAndErrors(t *testing.T) {
	tbl := datagen.DMV(5000, 1)
	w, err := query.GenerateWorkload(tbl, query.DefaultGeneratorConfig(), 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	e := estimator.NewIndep(tbl)
	r := RunWorkload(e, w)
	if len(r.Estimates) != 15 || len(r.Latencies) != 15 {
		t.Fatal("result sizes wrong")
	}
	errs := r.Errors(w)
	for _, qe := range errs {
		if qe < 1 {
			t.Fatalf("q-error %v below 1", qe)
		}
	}
	sums := r.BucketedSummaries(w)
	total := 0
	for _, s := range sums {
		total += s.Count
	}
	if total != 15 {
		t.Fatalf("bucketed counts sum to %d", total)
	}
}

func TestPrintErrorTableRenders(t *testing.T) {
	tbl := datagen.DMV(4000, 1)
	w, err := query.GenerateWorkload(tbl, query.DefaultGeneratorConfig(), 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := RunWorkload(estimator.NewIndep(tbl), w)
	var buf bytes.Buffer
	PrintErrorTable(&buf, "test table", []*Result{r}, w)
	out := buf.String()
	if !strings.Contains(out, "Indep") || !strings.Contains(out, "test table") {
		t.Fatalf("table missing content:\n%s", out)
	}
}

func TestPrintQuantileTable(t *testing.T) {
	var buf bytes.Buffer
	PrintQuantileTable(&buf, "q", []NamedErrors{{"X", []float64{1, 2, 3, 100}}})
	if !strings.Contains(buf.String(), "X") || !strings.Contains(buf.String(), "100") {
		t.Fatalf("quantile table:\n%s", buf.String())
	}
}

func TestLatencySummary(t *testing.T) {
	lats := []time.Duration{time.Millisecond, 2 * time.Millisecond, 10 * time.Millisecond}
	p50, p99, max := LatencySummary(lats)
	if p50 != 2 || p99 != 10 || max != 10 {
		t.Fatalf("latency summary: %v %v %v", p50, p99, max)
	}
}

func TestFmtErrAndHumanBytes(t *testing.T) {
	if fmtErr(1.234) != "1.23" {
		t.Fatalf("fmtErr small: %s", fmtErr(1.234))
	}
	if fmtErr(12345) != "12345" {
		t.Fatalf("fmtErr mid: %s", fmtErr(12345))
	}
	if !strings.Contains(fmtErr(2e6), "e+") {
		t.Fatalf("fmtErr huge: %s", fmtErr(2e6))
	}
	if fmtErr(metrics.Quantile(nil, 0.5)) != "-" {
		t.Fatal("fmtErr NaN should render -")
	}
	if humanBytes(512) != "512B" || humanBytes(2048) != "2.0KB" || !strings.HasSuffix(humanBytes(3<<20), "MB") {
		t.Fatal("humanBytes")
	}
}

func TestFig4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	Fig4(&buf, tinyConfig())
	out := buf.String()
	if !strings.Contains(out, "DMV") || !strings.Contains(out, "Conviva-A") {
		t.Fatalf("Fig4 output:\n%s", out)
	}
}

func TestTable8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	cfg := tinyConfig()
	cfg.NumQueries = 10
	Table8(&buf, cfg)
	out := buf.String()
	if !strings.Contains(out, "refreshed") || !strings.Contains(out, "stale") {
		t.Fatalf("Table8 output:\n%s", out)
	}
}

func TestFig7Fig8ShareOracleWorkloadShape(t *testing.T) {
	tbl := datagen.ConvivaB(1).Project(8)
	w := fig78Workload(tbl, tinyConfig(), 10)
	if len(w.Queries) != 10 {
		t.Fatal("workload size")
	}
	for _, q := range w.Queries {
		if q.NumFilters() > 12 {
			t.Fatal("too many filters for §6.7 workload")
		}
	}
}

func TestLabelQueriesConsistentWithExecute(t *testing.T) {
	tbl := datagen.DMV(3000, 1)
	gen := query.NewGenerator(tbl, query.DefaultGeneratorConfig(), 5)
	qs := []query.Query{gen.Next(), gen.Next(), gen.Next()}
	w := labelQueries(qs, tbl)
	for i := range qs {
		reg, err := query.Compile(qs[i], tbl)
		if err != nil {
			t.Fatal(err)
		}
		if w.TrueCard[i] != query.Execute(reg, tbl) {
			t.Fatalf("label mismatch at %d", i)
		}
	}
}

func TestTrainQueryCountScales(t *testing.T) {
	cfg := tinyConfig()
	if trainQueryCount(cfg) < 200 {
		t.Fatal("training workload floor")
	}
	cfg.NumQueries = 1000
	if trainQueryCount(cfg) != 5000 {
		t.Fatalf("train count = %d", trainQueryCount(cfg))
	}
}

// TestTrainingDigestRepeats: `narubench training` prints the SHA-256 of its
// batched and sharded models, and two runs from one seed print the same one.
func TestTrainingDigestRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	cfg.DMVRows = 1500
	digest := func() string {
		var buf bytes.Buffer
		cfg.BenchOut = filepath.Join(t.TempDir(), "BENCH_training.json")
		Training(&buf, cfg)
		for _, line := range strings.Split(buf.String(), "\n") {
			if d, ok := strings.CutPrefix(line, "training digest: "); ok {
				if len(d) != 64 {
					t.Fatalf("digest %q is not a SHA-256", d)
				}
				return d
			}
		}
		t.Fatalf("no training digest in:\n%s", buf.String())
		return ""
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("two runs printed digests %s and %s", a, b)
	}
}
