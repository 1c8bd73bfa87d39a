package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/made"
	"repro/internal/query"
	"repro/internal/table"
)

// noFork hides a model's ForkModel method, forcing the estimator onto the
// mutex-serialized path. It keeps BeginSampling visible so both paths use
// the same (delta-forward) model code and stay bit-comparable.
type noFork struct{ SequentialModel }

// batchRegions compiles a workload mixing operators, enumerable-small and
// sampling-large regions, and one empty region.
func batchRegions(t *testing.T, tbl *table.Table) []*query.Region {
	t.Helper()
	qs := []query.Query{
		{Preds: []query.Predicate{{Col: 0, Op: query.OpEq, Code: 1}}},
		{Preds: []query.Predicate{{Col: 0, Op: query.OpGe, Code: 3}, {Col: 1, Op: query.OpLt, Code: 9}}},
		{Preds: []query.Predicate{{Col: 1, Op: query.OpBetween, Code: 2, Code2: 7}, {Col: 3, Op: query.OpNe, Code: 4}}},
		{Preds: []query.Predicate{{Col: 2, Op: query.OpIn, Set: []int32{0, 2, 5}}}},
		{Preds: []query.Predicate{{Col: 0, Op: query.OpLe, Code: 5}, {Col: 2, Op: query.OpGt, Code: 1}, {Col: 3, Op: query.OpGe, Code: 2}}},
		{}, // wildcard
		{Preds: []query.Predicate{{Col: 0, Op: query.OpEq, Code: 2}, {Col: 1, Op: query.OpEq, Code: 4}}},
		{Preds: []query.Predicate{{Col: 3, Op: query.OpLt, Code: 8}, {Col: 1, Op: query.OpGe, Code: 1}}},
		{Preds: []query.Predicate{{Col: 0, Op: query.OpGt, Code: 0}, {Col: 1, Op: query.OpBetween, Code: 1, Code2: 10}, {Col: 2, Op: query.OpNe, Code: 3}}},
		{Preds: []query.Predicate{{Col: 1, Op: query.OpGt, Code: 10}, {Col: 1, Op: query.OpLt, Code: 1}}}, // empty
	}
	regs := make([]*query.Region, len(qs))
	for i, q := range qs {
		regs[i] = mustRegion(t, q, tbl)
	}
	return regs
}

func testMADE(domains []int) *made.Model {
	return made.New(domains, made.Config{HiddenSizes: []int{32, 32}, EmbedThreshold: 64, EmbedDim: 8, Seed: 5})
}

// sels returns the selectivities of a batch call's results.
func sels(res []Result) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = r.Sel
	}
	return out
}

// TestEstimateBatchMatchesSequential checks the core determinism contract:
// a fresh estimator answering a workload through either batch entry point
// (any worker count) returns bit-identical results to a fresh estimator
// answering it through sequential EstimateRegion calls.
func TestEstimateBatchMatchesSequential(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	regs := batchRegions(t, tbl)
	domains := tbl.DomainSizes()

	const samples, seed = 64, 42
	seq := NewEstimator(testMADE(domains), samples, seed)
	seq.EnumThreshold = 40 // route some queries through each path
	want := make([]float64, len(regs))
	for i, reg := range regs {
		want[i] = seq.EstimateRegion(reg)
	}

	for _, workers := range []int{1, 3, 8} {
		for _, fused := range []bool{false, true} {
			batch := NewEstimator(testMADE(domains), samples, seed)
			batch.EnumThreshold = 40
			serve := batch.EstimateBatchCtx
			if fused {
				serve = batch.EstimateFused
			}
			got := sels(serve(context.Background(), Requests(regs), ServeOptions{Workers: workers}))
			for i := range regs {
				if got[i] != want[i] {
					t.Fatalf("workers=%d fused=%v query %d: batch %v != sequential %v", workers, fused, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEstimateBatchMutexPathMatchesForked checks that a model without
// ForkModel (served behind the estimator's mutex) produces the same answers
// as the same model served through fork replicas.
func TestEstimateBatchMutexPathMatchesForked(t *testing.T) {
	tbl := corrTable(t, 1500, 4)
	regs := batchRegions(t, tbl)
	domains := tbl.DomainSizes()

	const samples, seed = 64, 7
	forked := NewEstimator(testMADE(domains), samples, seed)
	forked.EnumThreshold = 40
	want := sels(forked.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 4}))

	locked := NewEstimator(noFork{testMADE(domains)}, samples, seed)
	locked.EnumThreshold = 40
	got := sels(locked.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 4}))
	for i := range regs {
		if got[i] != want[i] {
			t.Fatalf("query %d: mutex path %v != forked path %v", i, got[i], want[i])
		}
	}
}

// TestEstimateBatchConcurrent hammers one shared estimator from many
// goroutines (mixing EstimateFused and single EstimateRegion calls) and
// checks every answer stays in [0, 1]. Run under -race this doubles as the
// data-race check for the scratch pool and fork replicas.
func TestEstimateBatchConcurrent(t *testing.T) {
	tbl := corrTable(t, 1500, 5)
	regs := batchRegions(t, tbl)
	for _, m := range []Model{Model(testMADE(tbl.DomainSizes())), NewOracle(tbl)} {
		est := NewEstimator(m, 48, 11)
		est.EnumThreshold = 40
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g%2 == 0 {
					for _, sel := range sels(est.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: 3})) {
						if sel < 0 || sel > 1 {
							t.Errorf("selectivity %v outside [0,1]", sel)
						}
					}
					return
				}
				for _, reg := range regs {
					if sel := est.EstimateRegion(reg); sel < 0 || sel > 1 {
						t.Errorf("selectivity %v outside [0,1]", sel)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestOracleForkIndependence checks fork replicas of the oracle narrow their
// row sets independently mid-walk.
func TestOracleForkIndependence(t *testing.T) {
	tbl := corrTable(t, 800, 6)
	o := NewOracle(tbl)
	f, ok := o.ForkModel().(*Oracle)
	if !ok {
		t.Fatalf("ForkModel returned %T", o.ForkModel())
	}
	nc := o.NumCols()
	codesA := make([]int32, 2*nc) // all zeros
	codesB := []int32{1, 1, 1, 1, 1, 1, 1, 1}
	out := [][]float64{make([]float64, 16), make([]float64, 16)}

	o.BeginSampling(2)
	f.BeginSampling(2)
	o.CondBatch(codesA, 2, 0, out)
	f.CondBatch(codesB, 2, 0, out)
	// Walk both to column 1 with different histories; each must condition on
	// its own codes only.
	o.CondBatch(codesA, 2, 1, out)
	po := append([]float64(nil), out[0][:o.DomainSizes()[1]]...)
	f.CondBatch(codesB, 2, 1, out)
	pf := out[0][:o.DomainSizes()[1]]
	same := true
	for i := range po {
		if po[i] != pf[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("fork conditionals identical despite different conditioning prefixes; state is shared")
	}
}
