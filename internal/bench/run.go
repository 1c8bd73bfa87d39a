package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/estimator"
	"repro/internal/metrics"
	"repro/internal/query"
)

// Result holds one estimator's per-query estimates and latencies over a
// workload.
type Result struct {
	Estimator string
	SizeBytes int64
	Estimates []float64       // selectivity fractions
	Latencies []time.Duration // per-query wall clock
}

// RunWorkload evaluates one estimator over a labeled workload, timing each
// estimate.
func RunWorkload(e estimator.Interface, w *query.Workload) *Result {
	r := &Result{
		Estimator: e.Name(),
		SizeBytes: e.SizeBytes(),
		Estimates: make([]float64, len(w.Regions)),
		Latencies: make([]time.Duration, len(w.Regions)),
	}
	for i, reg := range w.Regions {
		start := time.Now()
		r.Estimates[i] = e.EstimateRegion(reg)
		r.Latencies[i] = time.Since(start)
	}
	return r
}

// Errors converts a result to per-query q-errors (cardinality space, floored
// at one tuple — §6.1.3).
func (r *Result) Errors(w *query.Workload) []float64 {
	out := make([]float64, len(r.Estimates))
	n := float64(w.NumRows)
	for i := range out {
		out[i] = metrics.QError(r.Estimates[i]*n, float64(w.TrueCard[i]))
	}
	return out
}

// BucketedSummaries groups q-errors by the paper's selectivity bands and
// summarizes each group.
func (r *Result) BucketedSummaries(w *query.Workload) map[metrics.SelectivityBucket]metrics.Summary {
	byBucket := map[metrics.SelectivityBucket][]float64{}
	errs := r.Errors(w)
	for i, e := range errs {
		b := metrics.Bucket(w.TrueSelectivity(i))
		byBucket[b] = append(byBucket[b], e)
	}
	out := map[metrics.SelectivityBucket]metrics.Summary{}
	for b, es := range byBucket {
		out[b] = metrics.Summarize(es)
	}
	return out
}

// PrintErrorTable renders the paper-style error table (one row per
// estimator, columns = median/95th/99th/max per selectivity band).
func PrintErrorTable(out io.Writer, title string, results []*Result, w *query.Workload) {
	fmt.Fprintf(out, "\n%s\n", title)
	// Bucket counts header.
	counts := map[metrics.SelectivityBucket]int{}
	for i := range w.Queries {
		counts[metrics.Bucket(w.TrueSelectivity(i))]++
	}
	fmt.Fprintf(out, "queries: high=%d medium=%d low=%d (total %d)\n",
		counts[metrics.High], counts[metrics.Medium], counts[metrics.Low], len(w.Queries))
	fmt.Fprintf(out, "%-12s %-9s", "Estimator", "Size")
	fmt.Fprintf(out, " | %28s | %28s | %28s\n",
		"High: med/95/99/max", "Medium: med/95/99/max", "Low: med/95/99/max")
	for _, r := range results {
		sums := r.BucketedSummaries(w)
		fmt.Fprintf(out, "%-12s %-9s", r.Estimator, humanBytes(r.SizeBytes))
		for _, b := range []metrics.SelectivityBucket{metrics.High, metrics.Medium, metrics.Low} {
			s, ok := sums[b]
			if !ok {
				fmt.Fprintf(out, " | %28s", "-")
				continue
			}
			fmt.Fprintf(out, " | %6s %6s %6s %6s",
				fmtErr(s.Median), fmtErr(s.P95), fmtErr(s.P99), fmtErr(s.Max))
		}
		fmt.Fprintln(out)
	}
}

// NamedErrors pairs an estimator label with its per-query q-errors.
type NamedErrors struct {
	Name string
	Errs []float64
}

// PrintQuantileTable renders a simple med/95/99/max table (Tables 5 and 8).
func PrintQuantileTable(out io.Writer, title string, rows []NamedErrors) {
	fmt.Fprintf(out, "\n%s\n%-16s %8s %8s %8s %8s\n", title, "Estimator", "Median", "95th", "99th", "Max")
	for _, row := range rows {
		s := metrics.Summarize(row.Errs)
		fmt.Fprintf(out, "%-16s %8s %8s %8s %8s\n",
			row.Name, fmtErr(s.Median), fmtErr(s.P95), fmtErr(s.P99), fmtErr(s.Max))
	}
}

// LatencySummary reports latency quantiles in milliseconds.
func LatencySummary(lats []time.Duration) (p50, p99, max float64) {
	ms := make([]float64, len(lats))
	for i, d := range lats {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return metrics.Quantile(ms, 0.5), metrics.Quantile(ms, 0.99), metrics.Quantile(ms, 1)
}

// fmtErr renders a q-error the way the paper does: two decimals for small
// values, scientific-ish for huge ones.
func fmtErr(v float64) string {
	switch {
	case v != v: // NaN: empty bucket
		return "-"
	case v >= 1e5:
		return fmt.Sprintf("%.0e", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func humanBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
