package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

func TestClampProb(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.5, 0.5}, {0, 0}, {1, 1}, {-0.1, 0}, {1.3, 1}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := clampProb(c.in); got != c.want {
			t.Fatalf("clampProb(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRegionSizeRestrictedTrailingWildcards(t *testing.T) {
	domains := []int{10, 20, 30}
	reg, err := query.CompileDomains(query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpLe, Code: 4}, // 5 values
	}}, domains)
	if err != nil {
		t.Fatal(err)
	}
	// Only column 0 restricted; trailing wildcards marginalize out.
	e := &Estimator{} // natural column order
	if got := e.regionSizeRestricted(reg); got != 5 {
		t.Fatalf("size = %v, want 5", got)
	}
	// Restriction on the last column forces the full prefix.
	reg2, err := query.CompileDomains(query.Query{Preds: []query.Predicate{
		{Col: 2, Op: query.OpEq, Code: 7},
	}}, domains)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.regionSizeRestricted(reg2); got != 10*20*1 {
		t.Fatalf("size = %v, want 200", got)
	}
}

// TestUniformSamplingCollapsesProgressiveDoesNot reproduces the §5.1 failure
// mode: on skewed, correlated data, uniform region sampling returns ~zero
// density while progressive sampling stays accurate — the motivating result
// for the paper's technique (Figure 3).
func TestUniformSamplingCollapsesProgressiveDoesNot(t *testing.T) {
	// 6 columns; 99% of mass in the top ~1% of each domain, columns
	// perfectly correlated (all equal), domain 200.
	const rows = 20000
	const nc = 6
	const dom = 200
	codes := make([][]int32, nc)
	for c := range codes {
		codes[c] = make([]int32, rows)
	}
	for r := 0; r < rows; r++ {
		v := int32(r % 2) // 2 hot values out of 200
		if r%100 == 99 {
			v = int32(r/100) % dom // 1% spread over the domain
		}
		for c := 0; c < nc; c++ {
			codes[c][r] = v
		}
	}
	names := make([]string, nc)
	domains := make([]int, nc)
	for c := range names {
		names[c] = string(rune('a' + c))
		domains[c] = dom
	}
	tbl, err := table.FromCodes("skew", names, domains, codes)
	if err != nil {
		t.Fatal(err)
	}
	// Query: top 50% of each domain... predicates selecting codes <= 99,
	// which includes the hot values 0 and 1.
	var preds []query.Predicate
	for c := 0; c < nc; c++ {
		preds = append(preds, query.Predicate{Col: c, Op: query.OpLe, Code: 99})
	}
	reg, err := query.Compile(query.Query{Preds: preds}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	truth := query.Selectivity(reg, tbl)
	if truth < 0.9 {
		t.Fatalf("setup: truth %v, want ~0.99", truth)
	}
	oracle := NewOracle(tbl)
	est := NewEstimator(oracle, 1000, 7)

	prog := est.EstimateRegion(reg)
	if ratio := prog / truth; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("progressive sampling off: %v vs %v", prog, truth)
	}
	unif := est.UniformRegionSample(reg, 1000)
	// 1000 uniform samples over a 100^6 region containing ~2 hot points:
	// essentially certain to miss all mass.
	if unif > truth/10 {
		t.Fatalf("uniform sampling unexpectedly accurate: %v vs truth %v", unif, truth)
	}
}

func TestEstimatorPanicsOnWrongRegionWidth(t *testing.T) {
	tbl := corrTable(t, 200, 20)
	est := NewEstimator(NewOracle(tbl), 10, 1)
	reg, err := query.CompileDomains(query.Query{}, []int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched region width")
		}
	}()
	est.EstimateRegion(reg)
}

func TestNewEstimatorRejectsZeroSamples(t *testing.T) {
	tbl := corrTable(t, 100, 21)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEstimator(NewOracle(tbl), 0, 1)
}

func TestWildcardOnlyQueryIsOne(t *testing.T) {
	tbl := corrTable(t, 300, 23)
	est := NewEstimator(NewOracle(tbl), 100, 1)
	reg, err := query.Compile(query.Query{}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Enumerate(reg); got != 1 {
		t.Fatalf("all-wildcard enumeration = %v, want 1", got)
	}
	est.EnumThreshold = 0 // sample the wildcard region instead of enumerating it
	if got := est.EstimateRegion(reg); math.Abs(got-1) > 1e-9 {
		t.Fatalf("all-wildcard sampling = %v, want 1", got)
	}
}

func TestStdErrShrinksWithSamples(t *testing.T) {
	tbl := corrTable(t, 4000, 60)
	o := NewOracle(tbl)
	reg, err := query.Compile(query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpLe, Code: 5},
		{Col: 1, Op: query.OpGe, Code: 3},
		{Col: 3, Op: query.OpLe, Code: 7},
	}}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	small := NewEstimator(o, 100, 1)
	small.EnumThreshold = 0 // force the sampling path
	big := NewEstimator(o, 5000, 1)
	big.EnumThreshold = 0
	resS := small.EstimateBatchCtx(context.Background(), []Request{{Region: reg}}, ServeOptions{})[0]
	resB := big.EstimateBatchCtx(context.Background(), []Request{{Region: reg}}, ServeOptions{})[0]
	errS, selB, errB := resS.StdErr, resB.Sel, resB.StdErr
	if errS <= 0 || errB <= 0 {
		t.Fatalf("stderr should be positive: %v %v", errS, errB)
	}
	if errB >= errS {
		t.Fatalf("stderr did not shrink with samples: %v -> %v", errS, errB)
	}
	// The estimate should lie within a few stderr of truth.
	truth := query.Selectivity(reg, tbl)
	if d := math.Abs(selB - truth); d > 6*errB+1e-9 {
		t.Fatalf("estimate %v truth %v beyond 6 stderr (%v)", selB, truth, errB)
	}
}

func TestStdErrZeroForEnumeration(t *testing.T) {
	tbl := corrTable(t, 500, 61)
	est := NewEstimator(NewOracle(tbl), 100, 1)
	reg, err := query.Compile(query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpEq, Code: 1}}}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	res := est.EstimateBatchCtx(context.Background(), []Request{{Region: reg}}, ServeOptions{})[0] // tiny region → enumeration
	if res.StdErr != 0 || res.Samples != 0 {
		t.Fatalf("enumeration stderr = %v over %d samples, want 0 over 0", res.StdErr, res.Samples)
	}
}

// TestScratchHoldsOneChunk: a replica's CondBatch buffers hold one chunk,
// not a query's S paths. After an S = 2000 batch that enumerates a query and
// samples others, on both batch entry points, no scratch holds more
// probability rows than a chunk or an enumeration batch needs.
func TestScratchHoldsOneChunk(t *testing.T) {
	tbl := corrTable(t, 1500, 31)
	regs := batchRegions(t, tbl)
	const samples = 2000
	e := NewEstimator(testMADE(tbl.DomainSizes()), samples, 7)
	e.EnumThreshold = 40
	res := e.EstimateBatchCtx(context.Background(), Requests(regs), ServeOptions{Workers: 1})
	res = append(res, e.EstimateFused(context.Background(), Requests(regs), ServeOptions{Workers: 1})...)
	enumerated, sampled := 0, 0
	for i, r := range res {
		switch {
		case r.Source == SourceModel && r.Samples == 0 && !regs[i%len(regs)].IsEmpty():
			enumerated++
		case r.Samples == samples:
			sampled++
		}
	}
	if enumerated == 0 || sampled == 0 {
		t.Fatalf("%d enumerated and %d sampled answers; the batch must carry both", enumerated, sampled)
	}
	limit := max(anytimeChunk, enumBatch)
	sc := e.acquire()
	defer e.release(sc)
	for _, s := range []*scratch{e.primary, sc} {
		if len(s.probs) > limit {
			t.Fatalf("a scratch holds %d probability rows; want at most %d", len(s.probs), limit)
		}
	}
}
