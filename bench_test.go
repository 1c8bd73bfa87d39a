package naru

// Benchmarks: one per table and figure of the paper's evaluation (§6). Each
// benchmark times the steady-state unit of work of its experiment (usually
// one selectivity estimate under that experiment's configuration) over
// fixtures that are built once and shared. The full experiments — complete
// workloads, full tables, all estimators — are regenerated by cmd/narubench;
// these benches make the per-query costs measurable via `go test -bench`.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/estimator"
	"repro/internal/made"
	"repro/internal/query"
	"repro/internal/table"
)

// fixtures are shared across benchmarks and built lazily: a small synthetic
// DMV with a trained model, a Conviva-A analogue, and the Conviva-B oracle.
var fx struct {
	onceDMV sync.Once
	dmv     *table.Table
	dmvW    *query.Workload
	dmvOODW *query.Workload
	dmvNaru *made.Model

	onceCvA sync.Once
	cvA     *table.Table
	cvAW    *query.Workload
	cvANaru *made.Model

	onceCvB sync.Once
	cvB     *table.Table
	cvB15   *table.Table
	oracle  *core.Oracle
	cvBW    *query.Workload
}

const (
	benchDMVRows = 30_000
	benchCvARows = 20_000
	benchQueries = 64
)

func dmvFixture(b *testing.B) {
	b.Helper()
	fx.onceDMV.Do(func() {
		fx.dmv = datagen.DMV(benchDMVRows, 1)
		var err error
		fx.dmvW, err = query.GenerateWorkload(fx.dmv, query.DefaultGeneratorConfig(), 2, benchQueries)
		if err != nil {
			panic(err)
		}
		ood := query.DefaultGeneratorConfig()
		ood.OOD = true
		fx.dmvOODW, err = query.GenerateWorkload(fx.dmv, ood, 3, benchQueries)
		if err != nil {
			panic(err)
		}
		fx.dmvNaru = made.New(fx.dmv.DomainSizes(),
			made.Config{HiddenSizes: []int{128, 128}, EmbedThreshold: 64, EmbedDim: 64, Seed: 1})
		core.Train(fx.dmvNaru, fx.dmv, core.TrainConfig{Epochs: 2, BatchSize: 512, LR: 2e-3, Seed: 4})
	})
}

func cvAFixture(b *testing.B) {
	b.Helper()
	fx.onceCvA.Do(func() {
		fx.cvA = datagen.ConvivaA(benchCvARows, 1)
		var err error
		fx.cvAW, err = query.GenerateWorkload(fx.cvA, query.DefaultGeneratorConfig(), 2, benchQueries)
		if err != nil {
			panic(err)
		}
		fx.cvANaru = made.New(fx.cvA.DomainSizes(),
			made.Config{HiddenSizes: []int{128, 128, 128, 128}, EmbedThreshold: 64, EmbedDim: 64, Seed: 1})
		core.Train(fx.cvANaru, fx.cvA, core.TrainConfig{Epochs: 2, BatchSize: 512, LR: 2e-3, Seed: 4})
	})
}

func cvBFixture(b *testing.B) {
	b.Helper()
	fx.onceCvB.Do(func() {
		fx.cvB = datagen.ConvivaB(1)
		fx.cvB15 = fx.cvB.Project(15)
		fx.oracle = core.NewOracle(fx.cvB15)
		var err error
		fx.cvBW, err = query.GenerateWorkload(fx.cvB15,
			query.GeneratorConfig{MinFilters: 5, MaxFilters: 12, SmallDomainThreshold: 10}, 5, 32)
		if err != nil {
			panic(err)
		}
	})
}

// benchEstimator times one estimate per iteration, cycling the workload.
func benchEstimator(b *testing.B, e interface {
	EstimateRegion(*query.Region) float64
}, w *query.Workload) {
	b.Helper()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += e.EstimateRegion(w.Regions[i%len(w.Regions)])
	}
	_ = sink
}

// BenchmarkFig4SelectivityDistribution times workload generation plus exact
// execution — the machinery behind Figure 4's selectivity histogram.
func BenchmarkFig4SelectivityDistribution(b *testing.B) {
	dmvFixture(b)
	gen := query.NewGenerator(fx.dmv, query.DefaultGeneratorConfig(), 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := gen.Next()
		reg, err := query.Compile(q, fx.dmv)
		if err != nil {
			b.Fatal(err)
		}
		query.Execute(reg, fx.dmv)
	}
}

// BenchmarkTable3DMV times one estimate on the DMV workload for every
// estimator family in Table 3.
func BenchmarkTable3DMV(b *testing.B) {
	dmvFixture(b)
	t := fx.dmv
	budget := t.SizeBytes() * 13 / 1000
	b.Run("Hist", func(b *testing.B) { benchEstimator(b, estimator.NewHist(t, budget), fx.dmvW) })
	b.Run("Indep", func(b *testing.B) { benchEstimator(b, estimator.NewIndep(t), fx.dmvW) })
	b.Run("Postgres", func(b *testing.B) { benchEstimator(b, estimator.NewPostgres(t, 100, 10000), fx.dmvW) })
	b.Run("DBMS-1", func(b *testing.B) { benchEstimator(b, estimator.NewDBMS1(t, 100, 200), fx.dmvW) })
	b.Run("Sample", func(b *testing.B) { benchEstimator(b, estimator.NewSample(t, 0.013, 1), fx.dmvW) })
	b.Run("KDE", func(b *testing.B) { benchEstimator(b, estimator.NewKDE(t, 2000, 1), fx.dmvW) })
	b.Run("MSCN-base", func(b *testing.B) {
		benchEstimator(b, estimator.NewMSCN(t, estimator.MSCNConfig{Name: "MSCN-base", SampleRows: 1000, Seed: 1}), fx.dmvW)
	})
	b.Run("Naru-1000", func(b *testing.B) { benchEstimator(b, core.NewEstimator(fx.dmvNaru, 1000, 1), fx.dmvW) })
	b.Run("Naru-2000", func(b *testing.B) { benchEstimator(b, core.NewEstimator(fx.dmvNaru, 2000, 1), fx.dmvW) })
}

// BenchmarkTable4ConvivaA times the Table 4 roster on the Conviva-A
// analogue, including the Naru-4000 configuration the paper needs for
// single-digit tail error there.
func BenchmarkTable4ConvivaA(b *testing.B) {
	cvAFixture(b)
	t := fx.cvA
	b.Run("DBMS-1", func(b *testing.B) { benchEstimator(b, estimator.NewDBMS1(t, 100, 200), fx.cvAW) })
	b.Run("Sample", func(b *testing.B) { benchEstimator(b, estimator.NewSample(t, 0.007, 1), fx.cvAW) })
	b.Run("KDE", func(b *testing.B) { benchEstimator(b, estimator.NewKDE(t, 1000, 1), fx.cvAW) })
	b.Run("Naru-1000", func(b *testing.B) { benchEstimator(b, core.NewEstimator(fx.cvANaru, 1000, 1), fx.cvAW) })
	b.Run("Naru-4000", func(b *testing.B) { benchEstimator(b, core.NewEstimator(fx.cvANaru, 4000, 1), fx.cvAW) })
}

// BenchmarkTable5OOD times Naru on the out-of-distribution workload, where
// most queries are empty and progressive sampling should die out quickly.
func BenchmarkTable5OOD(b *testing.B) {
	dmvFixture(b)
	benchEstimator(b, core.NewEstimator(fx.dmvNaru, 2000, 1), fx.dmvOODW)
}

// BenchmarkFig5TrainingQuality times one maximum-likelihood epoch on the DMV
// model — the x-axis unit of Figure 5.
func BenchmarkFig5TrainingQuality(b *testing.B) {
	dmvFixture(b)
	m := made.New(fx.dmv.DomainSizes(),
		made.Config{HiddenSizes: []int{128, 128}, EmbedThreshold: 64, EmbedDim: 64, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Train(m, fx.dmv, core.TrainConfig{Epochs: 1, BatchSize: 512, LR: 2e-3, Seed: int64(i)})
	}
}

// BenchmarkFig6Latency isolates the estimator whose latency CDF Figure 6
// centers on: Naru with progressive sampling, against the sample scan.
func BenchmarkFig6Latency(b *testing.B) {
	dmvFixture(b)
	b.Run("Naru-1000", func(b *testing.B) { benchEstimator(b, core.NewEstimator(fx.dmvNaru, 1000, 1), fx.dmvW) })
	b.Run("Sample", func(b *testing.B) { benchEstimator(b, estimator.NewSample(fx.dmv, 0.013, 1), fx.dmvW) })
}

// BenchmarkTable6RegionSize contrasts the two querying algorithms of §5 on
// the same region: exact enumeration vs progressive sampling.
func BenchmarkTable6RegionSize(b *testing.B) {
	dmvFixture(b)
	est := core.NewEstimator(fx.dmvNaru, 1000, 1)
	est.EnumThreshold = 0 // EstimateRegion always samples; Enumerate is called directly
	// A moderately sized region both algorithms can handle.
	q := query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpEq, Code: 1},
		{Col: 1, Op: query.OpLe, Code: 30},
		{Col: 5, Op: query.OpLe, Code: 4},
	}}
	reg, err := query.Compile(q, fx.dmv)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Enumerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est.Enumerate(reg)
		}
	})
	b.Run("ProgressiveSample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est.EstimateRegion(reg)
		}
	})
}

// BenchmarkTable7ModelSize times a training epoch at each hidden width of
// the §6.6 size sweep.
func BenchmarkTable7ModelSize(b *testing.B) {
	cvAFixture(b)
	for _, width := range []int{32, 64, 128, 256} {
		b.Run(benchName(width), func(b *testing.B) {
			m := made.New(fx.cvA.DomainSizes(), made.Config{
				HiddenSizes: []int{width, width, width, width}, EmbedThreshold: 64, EmbedDim: 64, Seed: 3})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Train(m, fx.cvA, core.TrainConfig{Epochs: 1, BatchSize: 512, LR: 2e-3, Seed: int64(i)})
			}
		})
	}
}

func benchName(width int) string {
	return "hidden-" + itoa(width)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig7EntropyGap times estimation against oracles with increasing
// injected entropy gap on the 15-column Conviva-B projection.
func BenchmarkFig7EntropyGap(b *testing.B) {
	cvBFixture(b)
	for _, gap := range []float64{0, 2, 10} {
		gap := gap
		b.Run("gap-"+itoa(int(gap)), func(b *testing.B) {
			var m core.Model = fx.oracle
			if gap > 0 {
				m = core.NewNoisyOracle(fx.oracle, fx.oracle.CalibrateNoise(gap))
			}
			benchEstimator(b, core.NewEstimator(m, 250, 1), fx.cvBW)
		})
	}
}

// BenchmarkFig8Columns times oracle-backed progressive sampling as the
// column count grows — the scaling axis of Figure 8.
func BenchmarkFig8Columns(b *testing.B) {
	cvBFixture(b)
	for _, nc := range []int{5, 15, 30} {
		nc := nc
		b.Run("cols-"+itoa(nc), func(b *testing.B) {
			t := fx.cvB.Project(nc)
			gc := query.GeneratorConfig{MinFilters: minI(5, nc), MaxFilters: minI(12, nc), SmallDomainThreshold: 10}
			w, err := query.GenerateWorkload(t, gc, 5, 16)
			if err != nil {
				b.Fatal(err)
			}
			benchEstimator(b, core.NewEstimator(core.NewOracle(t), 250, 1), w)
		})
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkTable8DataShift times one fine-tuning pass after an ingest — the
// per-partition cost of keeping the estimator fresh (§6.7.3).
func BenchmarkTable8DataShift(b *testing.B) {
	dmvFixture(b)
	part := fx.dmv.SliceRows(0, fx.dmv.NumRows()/5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Train(fx.dmvNaru, part, core.TrainConfig{Epochs: 1, BatchSize: 512, LR: 1e-3, Seed: int64(i)})
	}
}

// --- Ablation benches (design choices DESIGN.md calls out) ---

// BenchmarkAblationEmbedReuse contrasts a training step with and without the
// §4.2 embedding-reuse decoder on a schema with one huge domain.
func BenchmarkAblationEmbedReuse(b *testing.B) {
	domains := []int{8, 5000, 16}
	rng := rand.New(rand.NewSource(1))
	const n = 256
	codes := make([]int32, n*3)
	for r := 0; r < n; r++ {
		codes[r*3] = int32(rng.Intn(8))
		codes[r*3+1] = int32(rng.Intn(5000))
		codes[r*3+2] = int32(rng.Intn(16))
	}
	for _, reuse := range []bool{true, false} {
		name := "reuse"
		if !reuse {
			name = "no-reuse"
		}
		b.Run(name, func(b *testing.B) {
			m := made.New(domains, made.Config{
				HiddenSizes: []int{128, 128}, EmbedThreshold: 64, EmbedDim: 64,
				NoEmbedReuse: !reuse, Seed: 1})
			b.ReportMetric(float64(m.SizeBytes())/1e6, "MB")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainStep(codes, n, nil)
			}
		})
	}
}

// BenchmarkAblationUniformVsProgressive contrasts the §5.1 "first attempt"
// uniform region sampler with progressive sampling at equal sample counts.
func BenchmarkAblationUniformVsProgressive(b *testing.B) {
	dmvFixture(b)
	est := core.NewEstimator(fx.dmvNaru, 1000, 1)
	est.EnumThreshold = 0 // always sample
	reg := fx.dmvW.Regions[0]
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est.UniformRegionSample(reg, 1000)
		}
	})
	b.Run("progressive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est.EstimateRegion(reg)
		}
	})
}

// --- Inference fast path (DESIGN.md "Inference engine") ---

// fullForwardModel hides the model's BeginSampling and ForkModel methods, so
// the estimator serves it with a full forward pass per column — the behavior
// before the delta-forward cache, kept as the benchmark baseline.
type fullForwardModel struct{ core.Model }

// BenchmarkInferenceFastPath contrasts the serving configurations of the
// inference engine on the DMV workload: the reference full forward pass per
// column, the delta-forward fast path, and the concurrent batch entry point
// (one iteration = the whole 64-query workload there, so the three numbers
// are comparable per-query after dividing by the workload size).
func BenchmarkInferenceFastPath(b *testing.B) {
	dmvFixture(b)
	b.Run("full-forward", func(b *testing.B) {
		benchEstimator(b, core.NewEstimator(fullForwardModel{core.Model(fx.dmvNaru)}, 1000, 1), fx.dmvW)
	})
	b.Run("delta-forward", func(b *testing.B) {
		benchEstimator(b, core.NewEstimator(fx.dmvNaru, 1000, 1), fx.dmvW)
	})
	b.Run("batch-workload", func(b *testing.B) {
		est := core.NewEstimator(fx.dmvNaru, 1000, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			est.EstimateFused(context.Background(), core.Requests(fx.dmvW.Regions), core.ServeOptions{})
		}
	})
}
