package naru

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/made"
	"repro/internal/neurocard"
	"repro/internal/query"
	"repro/internal/table"
)

// condCounter wraps a MADE model and counts, across its forks, the CondBatch
// calls that reach it: the per-chunk reference walk's model calls.
type condCounter struct {
	*made.Model
	calls *atomic.Int64
}

func (c condCounter) ForkModel() any { return condCounter{c.Model.Fork(), c.calls} }

func (c condCounter) CondBatch(codes []int32, n, col int, out [][]float64) {
	c.calls.Add(1)
	c.Model.CondBatch(codes, n, col, out)
}

// TestEntryPointMap pins which walk each facade method takes. Every region
// lies above the enumeration threshold, so every answer samples. The methods
// that take a Query, and EstimateFused, walk the model's own block walk and
// make no CondBatch call; EstimateBatchCtx and EstimateRegion walk one
// CondBatch block per chunk. Each serves the workload from a fresh estimator,
// so its queries take the same indices, and all answer the same bits.
func TestEntryPointMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := table.NewBuilder("wide", []string{"a", "b", "c"})
	for i := 0; i < 1200; i++ {
		a := rng.Intn(20)
		bb := (a + rng.Intn(3)) % 20
		if err := b.AppendRow([]string{strconv.Itoa(a), strconv.Itoa(bb), strconv.Itoa((a + bb) % 20)}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	qs := []Query{
		{Preds: []Predicate{{Col: 0, Op: OpGe, Code: 1}, {Col: 2, Op: OpGe, Code: 1}}},
		{Preds: []Predicate{{Col: 1, Op: OpGe, Code: 1}, {Col: 2, Op: OpLe, Code: 16}}},
		{Preds: []Predicate{{Col: 0, Op: OpLe, Code: 15}, {Col: 1, Op: OpGe, Code: 3}, {Col: 2, Op: OpNe, Code: 4}}},
	}
	regs := make([]*Region, len(qs))
	for i, q := range qs {
		if regs[i], err = Compile(q, tbl); err != nil {
			t.Fatal(err)
		}
	}
	rows := float64(tbl.NumRows())
	ctx := context.Background()
	one := ServeOptions{Workers: 1}
	sels := func(res []Result) []float64 {
		out := make([]float64, len(res))
		for i, r := range res {
			if r.Err != nil || r.Samples == 0 {
				t.Fatalf("query %d: %+v, want a sampled model answer", i, r)
			}
			out[i] = r.Sel
		}
		return out
	}
	perQuery := func(f func(i int) (float64, error)) []float64 {
		out := make([]float64, len(qs))
		for i := range qs {
			v, err := f(i)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			out[i] = v
		}
		return out
	}
	entries := []struct {
		name      string
		condBatch bool    // walks CondBatch blocks
		scale     float64 // the answer is the selectivity times this
		serve     func(e *Estimator) []float64
	}{
		{"Selectivity", false, 1, func(e *Estimator) []float64 {
			return perQuery(func(i int) (float64, error) { return e.Selectivity(qs[i]) })
		}},
		{"Cardinality", false, rows, func(e *Estimator) []float64 {
			return perQuery(func(i int) (float64, error) { return e.Cardinality(qs[i]) })
		}},
		{"SelectivityBatchCtx", false, 1, func(e *Estimator) []float64 {
			res, err := e.SelectivityBatchCtx(ctx, qs, one)
			if err != nil {
				t.Fatal(err)
			}
			return sels(res)
		}},
		{"SelectivityDisjunction", false, 1, func(e *Estimator) []float64 {
			return perQuery(func(i int) (float64, error) { return e.SelectivityDisjunction(qs[i : i+1]) })
		}},
		{"EstimateFused", false, 1, func(e *Estimator) []float64 { return sels(e.EstimateFused(ctx, regs, one)) }},
		{"EstimateBatchCtx", true, 1, func(e *Estimator) []float64 { return sels(e.EstimateBatchCtx(ctx, regs, one)) }},
		{"EstimateRegion", true, 1, func(e *Estimator) []float64 {
			return perQuery(func(i int) (float64, error) { return e.EstimateRegion(regs[i]), nil })
		}},
	}
	var want []float64
	for _, ent := range entries {
		cc := condCounter{Model: fusedModel(tbl), calls: new(atomic.Int64)}
		got := ent.serve(NewFromModel(cc, tbl, fusedConfig()))
		if n := cc.calls.Load(); (n > 0) != ent.condBatch {
			t.Errorf("%s made %d CondBatch calls; want CondBatch blocks: %v", ent.name, n, ent.condBatch)
		}
		if want == nil {
			want = got
		}
		for i := range want {
			if w := want[i] * ent.scale; math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Errorf("%s query %d: %v, want %v (Selectivity's answer times %v)", ent.name, i, got[i], w, ent.scale)
			}
		}
	}
}

// TestJoinQuerySelectivityAndCardinality: a join query with scale columns
// is answered by Selectivity, with SelectivityBatchCtx's bits, and by
// Cardinality, with those bits times the join size, instead of refused.
func TestJoinQuerySelectivityAndCardinality(t *testing.T) {
	fresh := func() *Estimator { return ServeJoin(trainSmallJoin(t)) }
	ref := fresh()
	lt, joinSize := ref.Snapshot()
	q, err := query.ParseWhere("customers.region = east AND orders.amount >= 30", lt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.SelectivityBatchCtx(context.Background(), []Query{q, q}, ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range want {
		if r.Err != nil || r.Samples == 0 {
			t.Fatalf("reference query %d: %+v, want a sampled model answer", i, r)
		}
	}

	est := fresh()
	sel, err := est.Selectivity(q)
	if err != nil {
		t.Fatalf("Selectivity refused a join query: %v", err)
	}
	card, err := est.Cardinality(q)
	if err != nil {
		t.Fatalf("Cardinality refused a join query: %v", err)
	}
	if math.Float64bits(sel) != math.Float64bits(want[0].Sel) {
		t.Fatalf("Selectivity %v, SelectivityBatchCtx %v", sel, want[0].Sel)
	}
	if wantCard := want[1].Sel * float64(joinSize); math.Float64bits(card) != math.Float64bits(wantCard) {
		t.Fatalf("Cardinality %v, SelectivityBatchCtx's selectivity times the join size %v", card, wantCard)
	}
	if _, err := est.SelectivityDisjunction([]Query{q}); err == nil {
		t.Fatal("SelectivityDisjunction answered a join query with scale columns")
	}
}

// trainSmallJoin trains a join model over a three-table chain
// (customers ⋈ orders ⋈ items) small enough to train in a fraction of a
// second; the same seed trains the same model.
func trainSmallJoin(t *testing.T) *neurocard.Estimator {
	t.Helper()
	cb := table.NewBuilder("customers", []string{"cid", "region"})
	ob := table.NewBuilder("orders", []string{"oid", "cid", "amount"})
	ib := table.NewBuilder("items", []string{"oid", "price"})
	add := func(b *table.Builder, row ...string) {
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	regions := []string{"east", "west", "north"}
	oid := 0
	for cid := 0; cid < 40; cid++ {
		add(cb, strconv.Itoa(cid), regions[cid%3])
		for o := 0; o < 1+cid%3; o++ {
			add(ob, strconv.Itoa(oid), strconv.Itoa(cid), strconv.Itoa(10*(1+oid%5)))
			for i := 0; i < 1+oid%2; i++ {
				add(ib, strconv.Itoa(oid), strconv.Itoa(5*(i+1)))
			}
			oid++
		}
	}
	var tables []*table.Table
	for _, b := range []*table.Builder{cb, ob, ib} {
		tb, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tb)
	}
	je, _, err := neurocard.Train(context.Background(), &neurocard.Schema{
		Tables: tables,
		Edges: []neurocard.Edge{
			{Parent: 0, Child: 1, ParentCol: 0, ChildCol: 1},
			{Parent: 1, Child: 2, ParentCol: 0, ChildCol: 0},
		},
	}, neurocard.Config{
		Hidden: []int{16}, Samples: 300, Seed: 7, Epochs: 2,
		BatchSize: 128, EpochTuples: 1 << 11, LR: 5e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return je
}
