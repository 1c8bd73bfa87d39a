package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	naru "repro"
)

// metricSpec names one reported metric and its unit. The two lists below
// must match BENCHMARK.json, in order; the smoke test checks that they do.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced metrics every workload reports. The two timings
// are process CPU time, not wall time: on a guest whose host steals a
// varying share of its CPUs, wall-clock times follow the steal (up to 2×
// from one run to the next), while CPU time does not count stolen time.
// Every run still prints its wall-clock latencies and the steal it saw.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"qerror_p50", "ratio"},
	{"qerror_p95", "ratio"},
	{"cpu_per_op_ms", "ms"},
}

// perLayer are the traced metrics. A workload that does not exercise a layer
// reports 0 for it and says so on its human-readable line.
var perLayer = []metricSpec{
	{"server.estimate_ms", "ms"},
	{"server.cache_hit_frac", "fraction"},
	{"naru.coalesce_wait_ms", "ms"},
	{"query.parse_us", "us"},
	{"core.walk_ms", "ms"},
	{"core.self_frac", "fraction"},
	{"core.block_rows", "rows"},
	{"core.samples_per_query", "samples"},
	{"core.enum_frac", "fraction"},
	{"core.allocs_per_query", "allocs"},
	{"core.train_rows_per_s", "rows/s"},
	{"core.train_step_ms", "ms"},
	{"made.advance_frac", "fraction"},
	{"made.decode_frac", "fraction"},
	{"made.cond_frac", "fraction"},
	{"made.decode_ns_per_row", "ns"},
	{"made.decode_flops", "madd/query"},
	{"lifecycle.append_ms", "ms"},
	{"lifecycle.copy_rows", "rows"},
	{"lifecycle.scored_rows", "rows"},
	{"neurocard.estimate_ms", "ms"},
	{"neurocard.scaled_frac", "fraction"},
	{"neurocard.train_s", "s"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"gen.late_ms", "ms"},
	{"gen.backlog", "requests"},
	{"trace.overhead_frac", "fraction"},
}

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result accumulates one run: operation counts, correctness failures, metric
// values and the human-readable notes printed before the JSON line.
type result struct {
	attempted int
	failed    int
	errs      []string
	values    map[string]float64
	notes     map[string]string
	extra     []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

// fail records one failed operation or correctness check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// set records a metric value with an optional note printed beside it.
func (r *result) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// info adds a human-readable line that is not a metric.
func (r *result) info(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// write prints the human-readable lines and then the JSON line with the
// given metric set.
func (r *result) write(w io.Writer, specs []metricSpec) error {
	for _, line := range r.extra {
		fmt.Fprintf(w, "# %s\n", line)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "# FAIL %s\n", e)
	}
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if rep.Attempted < 1 {
		rep.Attempted = 1
		rep.Correct = false
	}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		fmt.Fprintf(w, "%-24s %14.6g %-10s %s\n", s.name, v, s.unit, r.notes[s.name])
		rep.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// sortedMs returns durations in milliseconds, ascending.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantile by linear interpolation between closest ranks, of an ascending
// slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailBeyond is how many samples the tail percentile leaves above it.
const tailBeyond = 10

// tail returns the highest percentile of an ascending slice that still has
// tailBeyond samples above it, with a note naming the percentile and the
// sample count. With too few samples it returns the maximum.
func tail(sorted []float64) (float64, string) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), "no samples"
	}
	if n <= tailBeyond {
		return sorted[n-1], fmt.Sprintf("max of %d (fewer than %d samples)", n, tailBeyond+1)
	}
	pct := 100 * float64(n-tailBeyond) / float64(n)
	return sorted[n-tailBeyond-1], fmt.Sprintf("p%.1f of %d, %d beyond", pct, n, tailBeyond)
}

// memNote prints the process's peak resident set (VmHWM). It is not a
// metric: it depends on where GC cycles fall and on how many requests were in
// flight at once, so repeated runs of one seed disagree by up to 20%.
func memNote(r *result) {
	r.info("peak RSS (VmHWM) %.1f MB", peakRSSMB())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// procStats brackets a measured phase: heap allocations, the process's CPU
// time, and the host's CPU accounting (steal is time the hypervisor gave to
// other guests). The process's CPU time comes from getrusage: the runtime's
// own CPU classes advance only at the end of a GC cycle, so over a stretch
// with little allocation they read as idle.
type procStats struct {
	mallocs        uint64
	at             time.Time
	gc, cpu        float64 // CPU seconds: GC (runtime/metrics), user + system (getrusage)
	steal, jiffies float64 // /proc/stat, all CPUs
}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	ps := procStats{mallocs: ms.Mallocs, at: time.Now(), gc: s[0].Value.Float64()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		ps.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseFloat(f, 64)
			ps.jiffies += v
			if i == 7 {
				ps.steal = v
			}
		}
	}
	return ps
}

// usage accumulates what pairs of readProcStats calls bracket: one measured
// stretch, or several whose totals are wanted together.
type usage struct {
	allocs         uint64
	gc, busy       float64 // CPU seconds: GC, used
	wall           float64 // seconds
	steal, jiffies float64 // host accounting, all CPUs
}

// add accumulates the stretch between two reads.
func (u *usage) add(a, b procStats) {
	u.allocs += b.mallocs - a.mallocs
	u.gc += b.gc - a.gc
	u.busy += b.cpu - a.cpu
	u.wall += b.at.Sub(a.at).Seconds()
	u.steal += b.steal - a.steal
	u.jiffies += b.jiffies - a.jiffies
}

// plus adds another accumulation.
func (u *usage) plus(v usage) {
	u.allocs += v.allocs
	u.gc += v.gc
	u.busy += v.busy
	u.wall += v.wall
	u.steal += v.steal
	u.jiffies += v.jiffies
}

// gcFrac is GC's share of the CPU time the process used.
func (u usage) gcFrac() float64 { return ratio(u.gc, u.busy) }

// busyFrac is the share of the available CPU time (GOMAXPROCS × wall) the
// process used: how loaded the program was.
func (u usage) busyFrac() float64 { return ratio(u.busy, u.wall*float64(runtime.GOMAXPROCS(0))) }

// stealFrac is the share of the host's CPU time taken by steal: a measure of
// how contended the machine was.
func (u usage) stealFrac() float64 { return ratio(u.steal, u.jiffies) }

// load is the human-readable line every run prints about its measurement.
func (u usage) load(what string) string {
	return fmt.Sprintf("process busy %.1f%% of %d CPUs, host CPU steal %.1f%%, during %s",
		100*u.busyFrac(), runtime.GOMAXPROCS(0), 100*u.stealFrac(), what)
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// metric lookups in a registry snapshot, by base name and tenant label.
func tenantKey(base, tenant string) string { return fmt.Sprintf("%s{tenant=%q}", base, tenant) }

func counter(reg *naru.Metrics, base, tenant string) float64 {
	return float64(reg.Snapshot().Counters[tenantKey(base, tenant)])
}

func gauge(reg *naru.Metrics, base, tenant string) float64 {
	return reg.Snapshot().Gauges[tenantKey(base, tenant)]
}

// histMean returns a histogram's mean.
func histMean(reg *naru.Metrics, base, tenant string) float64 {
	h := reg.Snapshot().Histograms[tenantKey(base, tenant)]
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Sum / float64(h.Count)
}

// provenance describes where and on what a run happened.
type provenance struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	SourceHash string             `json:"source_sha256"`
	NumCPU     int                `json:"numcpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPU        string             `json:"cpu"`
	Go         string             `json:"go"`
	Rates      map[string]float64 `json:"rates_per_s"`
}

func newProvenance(root, workload string, seed int64, seconds float64, trace bool) provenance {
	return provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		SourceHash: sourceHash(root),
		NumCPU:     runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(),
		Rates: map[string]float64{"dmv-open": rateOpen, "mixed-rw": rateMixed},
	}
}

// sourceHash digests the program's Go sources and module file under root
// (the benchmark's own directory excluded). The checkout a run builds from
// need not be a git repository, so this stands in for the commit.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".s") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
