package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/made"
	"repro/internal/nn"
	"repro/internal/query"
	"repro/internal/table"
)

func benchTable(b *testing.B, rows int) *table.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	domains := []int{8, 75, 150, 10, 40}
	codes := make([][]int32, len(domains))
	for c := range codes {
		codes[c] = make([]int32, rows)
	}
	for r := 0; r < rows; r++ {
		x := int32(rng.Intn(8))
		codes[0][r] = x
		codes[1][r] = (x*9 + int32(rng.Intn(3))) % 75
		codes[2][r] = (codes[1][r]*2 + int32(rng.Intn(4))) % 150
		codes[3][r] = x % 10
		codes[4][r] = (x + codes[3][r]) % 40
	}
	t, err := table.FromCodes("bench", []string{"a", "b", "c", "d", "e"}, domains, codes)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func benchModel(b *testing.B, t *table.Table) *made.Model {
	b.Helper()
	m := made.New(t.DomainSizes(), made.Config{
		HiddenSizes: []int{64, 64}, EmbedThreshold: 64, EmbedDim: 16, Seed: 1})
	// One cheap epoch so conditionals aren't uniform.
	codes := make([]int32, 256*t.NumCols())
	for r := 0; r < 256; r++ {
		row := make([]int32, t.NumCols())
		t.Row(r, row)
		copy(codes[r*t.NumCols():], row)
	}
	m.TrainStep(codes, 256, nn.NewAdam(1e-3))
	return m
}

func benchRegion(b *testing.B, t *table.Table) *query.Region {
	b.Helper()
	reg, err := query.Compile(query.Query{Preds: []query.Predicate{
		{Col: 1, Op: query.OpLe, Code: 50},
		{Col: 2, Op: query.OpGe, Code: 20},
		{Col: 4, Op: query.OpLe, Code: 30},
	}}, t)
	if err != nil {
		b.Fatal(err)
	}
	return reg
}

func BenchmarkSample1000(b *testing.B) {
	t := benchTable(b, 10000)
	est := NewEstimator(benchModel(b, t), 1000, 1)
	est.EnumThreshold = 0 // always sample
	reg := benchRegion(b, t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.EstimateRegion(reg)
	}
}

func BenchmarkEnumerateSmallRegion(b *testing.B) {
	t := benchTable(b, 10000)
	est := NewEstimator(benchModel(b, t), 100, 1)
	reg, err := query.Compile(query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpEq, Code: 2},
		{Col: 1, Op: query.OpLe, Code: 10},
	}}, t)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Enumerate(reg)
	}
}

func BenchmarkOracleSample1000(b *testing.B) {
	t := benchTable(b, 10000)
	est := NewEstimator(NewOracle(t), 1000, 1)
	est.EnumThreshold = 0
	reg := benchRegion(b, t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.EstimateRegion(reg)
	}
}

func BenchmarkDataEntropy(b *testing.B) {
	t := benchTable(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DataEntropy(t)
	}
}

func BenchmarkCrossEntropy(b *testing.B) {
	t := benchTable(b, 5000)
	m := benchModel(b, t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossEntropy(m, t, 2000)
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	t := benchTable(b, 10000)
	m := made.New(t.DomainSizes(), made.Config{
		HiddenSizes: []int{64, 64}, EmbedThreshold: 64, EmbedDim: 16, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(m, t, TrainConfig{Epochs: 1, BatchSize: 512, LR: 2e-3, Seed: int64(i)})
	}
}

// benchFusedWorkload is a small mixed batch (range scans, interior wildcards,
// point-ish predicates) sized so the fused scheduler packs multi-query blocks.
func benchFusedWorkload(b *testing.B, t *table.Table) []*query.Region {
	b.Helper()
	qs := []query.Query{
		{Preds: []query.Predicate{{Col: 1, Op: query.OpLe, Code: 50}, {Col: 2, Op: query.OpGe, Code: 20}, {Col: 4, Op: query.OpLe, Code: 30}}},
		{Preds: []query.Predicate{{Col: 0, Op: query.OpGe, Code: 2}, {Col: 2, Op: query.OpLe, Code: 100}}},
		{Preds: []query.Predicate{{Col: 1, Op: query.OpGe, Code: 10}, {Col: 3, Op: query.OpLe, Code: 7}, {Col: 4, Op: query.OpGe, Code: 5}}},
		{Preds: []query.Predicate{{Col: 2, Op: query.OpGe, Code: 40}, {Col: 2, Op: query.OpLe, Code: 140}}},
		{Preds: []query.Predicate{{Col: 0, Op: query.OpLe, Code: 5}, {Col: 1, Op: query.OpGe, Code: 20}, {Col: 2, Op: query.OpLe, Code: 120}}},
		{Preds: []query.Predicate{{Col: 1, Op: query.OpLe, Code: 60}, {Col: 4, Op: query.OpGe, Code: 10}}},
		{Preds: []query.Predicate{{Col: 0, Op: query.OpGe, Code: 1}, {Col: 3, Op: query.OpGe, Code: 2}, {Col: 4, Op: query.OpLe, Code: 35}}},
		{Preds: []query.Predicate{{Col: 2, Op: query.OpGe, Code: 10}, {Col: 2, Op: query.OpLe, Code: 60}, {Col: 1, Op: query.OpGe, Code: 5}}},
	}
	regs := make([]*query.Region, len(qs))
	for i, q := range qs {
		reg, err := query.Compile(q, t)
		if err != nil {
			b.Fatal(err)
		}
		regs[i] = reg
	}
	return regs
}

// BenchmarkEstimateFusedW1 is the fused cross-query path pinned to one
// worker — the configuration the W=1 regression hunt profiles.
func BenchmarkEstimateFusedW1(b *testing.B) {
	t := benchTable(b, 10000)
	est := NewEstimator(benchModel(b, t), 1000, 1)
	est.EnumThreshold = 40
	regs := benchFusedWorkload(b, t)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.EstimateFused(ctx, Requests(regs), ServeOptions{Workers: 1})
	}
}

// BenchmarkEstimateSequentialBatch is the per-query sequential fast path over
// the same workload, the baseline the fused path must beat.
func BenchmarkEstimateSequentialBatch(b *testing.B) {
	t := benchTable(b, 10000)
	est := NewEstimator(benchModel(b, t), 1000, 1)
	est.EnumThreshold = 40
	regs := benchFusedWorkload(b, t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})
	}
}
