package bench

import (
	"fmt"
	"io"

	"repro/internal/colnet"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/made"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/transformer"
)

// ArchComparison reproduces the §4.3 architecture study: train architecture
// A (per-column nets), architecture B (masked MLP / MADE — the paper's
// default), and the Transformer variant on Conviva-A at comparable parameter
// budgets, and report size, entropy gap, and worst-case q-error.
func ArchComparison(out io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	t := datagen.ConvivaA(cfg.ConvivaRows, cfg.Seed)
	dataH := core.DataEntropy(t)
	w := mustWorkload(t, query.DefaultGeneratorConfig(), cfg.Seed+100, minInt(cfg.NumQueries, 80))
	fmt.Fprintf(out, "\nArchitecture comparison on Conviva-A (§4.3; %d epochs, H(P)=%.2f bits)\n",
		cfg.Epochs, dataH)
	fmt.Fprintf(out, "%-16s %10s %14s %12s\n", "Architecture", "Size(MB)", "EntropyGap", "MaxQError")

	type entry struct {
		name  string
		model core.Trainable
	}
	entries := []entry{
		{"A (per-column)", colnet.New(t.DomainSizes(), colnet.Config{
			Hidden: 64, Layers: 2, EmbedThreshold: 64, EmbedDim: 64, Seed: cfg.Seed})},
		{"B (MADE)", made.New(t.DomainSizes(), ConvivaModelConfig(cfg.Seed))},
		{"Transformer", transformer.New(t.DomainSizes(), transformer.Config{
			DModel: 32, Layers: 2, Seed: cfg.Seed})},
	}
	for _, e := range entries {
		core.Train(e.model, t, core.TrainConfig{
			Epochs: cfg.Epochs, BatchSize: 512, LR: 2e-3, Seed: cfg.Seed + 200})
		gap := core.CrossEntropy(e.model, t, 20000) - dataH
		est := core.NewEstimator(e.model, 1000, cfg.Seed+7)
		r := RunWorkload(est, w)
		fmt.Fprintf(out, "%-16s %10.2f %11.2f bits %12s\n",
			e.name, float64(e.model.SizeBytes())/1e6, gap,
			fmtErr(metrics.Quantile(r.Errors(w), 1)))
		progress(out, cfg.Quiet, "arch: %s done", e.name)
	}
}

// UniformVsProgressive quantifies the §5.1 "first attempt" failure mode on
// the DMV analogue: the same trained model queried with naive uniform region
// sampling versus progressive sampling, at equal sample counts.
func UniformVsProgressive(out io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	t := datagen.DMV(cfg.DMVRows, cfg.Seed)
	w := mustWorkload(t, query.DefaultGeneratorConfig(), cfg.Seed+100, minInt(cfg.NumQueries, 80))
	m := TrainNaru(t, DMVModelConfig(cfg.Seed), cfg.Epochs, cfg.Seed+200)
	est := core.NewEstimator(m, 1000, cfg.Seed+7)
	est.EnumThreshold = 0 // progressive sampling on every query, never enumeration

	n := float64(t.NumRows())
	var uniErrs, progErrs []float64
	var uniZeros int
	for i, reg := range w.Regions {
		truth := float64(w.TrueCard[i])
		u := est.UniformRegionSample(reg, 1000)
		if u == 0 {
			uniZeros++
		}
		uniErrs = append(uniErrs, metrics.QError(u*n, truth))
		p := est.EstimateRegion(reg)
		progErrs = append(progErrs, metrics.QError(p*n, truth))
	}
	fmt.Fprintf(out, "\nUniform vs progressive sampling on DMV (§5.1, same model, 1000 samples, %d queries)\n", len(w.Regions))
	us, ps := metrics.Summarize(uniErrs), metrics.Summarize(progErrs)
	fmt.Fprintf(out, "%-14s %8s %8s %8s %8s  (zero estimates)\n", "Sampler", "Median", "95th", "99th", "Max")
	fmt.Fprintf(out, "%-14s %8s %8s %8s %8s  %d/%d\n", "Uniform",
		fmtErr(us.Median), fmtErr(us.P95), fmtErr(us.P99), fmtErr(us.Max), uniZeros, len(w.Regions))
	fmt.Fprintf(out, "%-14s %8s %8s %8s %8s\n", "Progressive",
		fmtErr(ps.Median), fmtErr(ps.P95), fmtErr(ps.P99), fmtErr(ps.Max))
}
