package bench

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func writeBench(t *testing.T, path string, entries []BenchEntry) {
	t.Helper()
	if err := writeBenchJSON(path, entries); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryAppendAndCheck: appending records per-commit entries, and the
// regression gate passes identical results, fails >10% losses in the
// unit-appropriate direction, and ignores non-gated units and new metrics.
func TestHistoryAppendAndCheck(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "history.json")
	bench := filepath.Join(dir, "BENCH_inference.json")

	base := []BenchEntry{
		{Name: "qps", Value: 100, Unit: "queries/sec"},
		{Name: "p99", Value: 50, Unit: "ms"},
		{Name: "mismatches", Value: 0, Unit: "queries"},
	}
	writeBench(t, bench, base)
	// No baseline recorded yet: the gate must pass.
	if err := CheckRegression(hist, bench, "inference", 0.10); err != nil {
		t.Fatalf("empty history: %v", err)
	}
	if err := AppendHistory(hist, bench, "inference"); err != nil {
		t.Fatal(err)
	}
	got, err := readHistory(hist)
	if err != nil || len(got) != 1 {
		t.Fatalf("history after append: %v, %v", got, err)
	}
	if got[0].Bench != "inference" || got[0].Commit == "" || len(got[0].Entries) != 3 {
		t.Fatalf("recorded entry malformed: %+v", got[0])
	}

	// Identical re-run: passes.
	if err := CheckRegression(hist, bench, "inference", 0.10); err != nil {
		t.Fatalf("identical run flagged: %v", err)
	}
	// Within tolerance: passes.
	writeBench(t, bench, []BenchEntry{
		{Name: "qps", Value: 95, Unit: "queries/sec"},
		{Name: "p99", Value: 54, Unit: "ms"},
	})
	if err := CheckRegression(hist, bench, "inference", 0.10); err != nil {
		t.Fatalf("5%%/8%% drift flagged: %v", err)
	}
	// Throughput collapse: fails, naming the metric.
	writeBench(t, bench, []BenchEntry{{Name: "qps", Value: 80, Unit: "queries/sec"}})
	err = CheckRegression(hist, bench, "inference", 0.10)
	if err == nil || !strings.Contains(err.Error(), "qps") {
		t.Fatalf("20%% throughput loss not flagged: %v", err)
	}
	// Latency blowup: fails (lower is better for ms).
	writeBench(t, bench, []BenchEntry{{Name: "p99", Value: 80, Unit: "ms"}})
	if err := CheckRegression(hist, bench, "inference", 0.10); err == nil {
		t.Fatal("60% latency increase not flagged")
	}
	// Faster is never a regression; non-gated units and unknown names skip.
	writeBench(t, bench, []BenchEntry{
		{Name: "qps", Value: 500, Unit: "queries/sec"},
		{Name: "p99", Value: 5, Unit: "ms"},
		{Name: "mismatches", Value: 7, Unit: "queries"},
		{Name: "brand_new", Value: 1, Unit: "ms"},
	})
	if err := CheckRegression(hist, bench, "inference", 0.10); err != nil {
		t.Fatalf("improvement flagged: %v", err)
	}
	// A different bench name has no baseline: passes.
	if err := CheckRegression(hist, bench, "training", 0.10); err != nil {
		t.Fatalf("unrelated bench gated: %v", err)
	}
}

// TestBenchJSONRecordsMachine checks that every written entry names the GEMM
// kernel path, the CPU count and GOMAXPROCS in its extra, after any text of
// its own.
func TestBenchJSONRecordsMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	writeBench(t, path, []BenchEntry{
		{Name: "qps", Value: 1, Unit: "queries/sec", Extra: "fused, one worker"},
		{Name: "p99", Value: 2, Unit: "ms"},
	})
	got, err := readBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	prov := fmt.Sprintf("kernel=%s numcpu=%d gomaxprocs=%d", tensor.KernelPath(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if want := "fused, one worker; " + prov; got[0].Extra != want {
		t.Fatalf("extra %q, want %q", got[0].Extra, want)
	}
	if got[1].Extra != prov {
		t.Fatalf("extra %q, want %q", got[1].Extra, prov)
	}
}
