package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

// serveScaled serves one query with its scale columns on the reference walk,
// one CondBatch block per chunk.
func serveScaled(e *Estimator, reg *query.Region, scales []ScaleCol) Result {
	return e.EstimateBatchCtx(context.Background(), []Request{{Region: reg, Scales: scales}}, ServeOptions{Workers: 1})[0]
}

// condModel is an exact two-column model: P(x0) = p0[x0], P(x1|x0) =
// p1[x0][x1]. Exact conditionals isolate the scaled walk's arithmetic from
// model fit.
type condModel struct {
	p0 []float64
	p1 [][]float64
}

func (m *condModel) NumCols() int       { return 2 }
func (m *condModel) DomainSizes() []int { return []int{len(m.p0), len(m.p1[0])} }
func (m *condModel) SizeBytes() int64   { return 0 }

func (m *condModel) CondBatch(codes []int32, n, col int, out [][]float64) {
	for r := 0; r < n; r++ {
		switch col {
		case 0:
			out[r] = append(out[r][:0], m.p0...)
		case 1:
			out[r] = append(out[r][:0], m.p1[codes[r*2]]...)
		}
	}
}

func (m *condModel) LogProbBatch(codes []int32, n int, dst []float64) {
	for r := 0; r < n; r++ {
		dst[r] = math.Log(m.p0[codes[r*2]] * m.p1[codes[r*2]][codes[r*2+1]])
	}
}

// TestEstimateScaledExactIndependent: when the scale column's conditional does
// not depend on the path, every path carries the same weight, so the scaled
// estimate is exact — Σ_{v0∈R} p0 · Σ_v p1(v)·inv(v) to float precision.
func TestEstimateScaledExactIndependent(t *testing.T) {
	p1 := []float64{0.5, 0.3, 0.2}
	m := &condModel{
		p0: []float64{0.1, 0.2, 0.3, 0.4},
		p1: [][]float64{p1, p1, p1, p1},
	}
	e := NewEstimator(m, 64, 5)
	reg, err := query.CompileDomains(query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpLe, Code: 1}, // {0, 1}: mass 0.3
	}}, m.DomainSizes())
	if err != nil {
		t.Fatal(err)
	}
	inv := []float64{1, 0.5, 0.25} // fanouts 1, 2, 4
	res := serveScaled(e, reg, []ScaleCol{{Col: 1, Inv: inv}})
	sel, stderr := res.Sel, res.StdErr
	want := 0.3 * (0.5*1 + 0.3*0.5 + 0.2*0.25)
	if math.Abs(sel-want) > 1e-12 {
		t.Fatalf("sel = %.15f, want %.15f", sel, want)
	}
	if stderr > 1e-12 {
		t.Fatalf("stderr = %v for a zero-variance walk", stderr)
	}
}

// TestEstimateScaledDependent: the scale column's conditional depends on the
// drawn prefix, so the walk is genuinely Monte Carlo; the mean must land on
// Σ_{v0∈R} p0(v0) · Σ_v p1(v0,v)·inv(v) within a few standard errors.
func TestEstimateScaledDependent(t *testing.T) {
	m := &condModel{
		p0: []float64{0.6, 0.3, 0.1},
		p1: [][]float64{
			{0.8, 0.15, 0.05},
			{0.1, 0.6, 0.3},
			{0.05, 0.15, 0.8},
		},
	}
	e := NewEstimator(m, 20000, 11)
	reg, err := query.CompileDomains(query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpLe, Code: 1}, // {0, 1}
	}}, m.DomainSizes())
	if err != nil {
		t.Fatal(err)
	}
	inv := []float64{1, 0.5, 0.25}
	res := serveScaled(e, reg, []ScaleCol{{Col: 1, Inv: inv}})
	sel, stderr := res.Sel, res.StdErr
	mass := func(p []float64) float64 { return p[0]*inv[0] + p[1]*inv[1] + p[2]*inv[2] }
	want := 0.6*mass(m.p1[0]) + 0.3*mass(m.p1[1])
	if diff := math.Abs(sel - want); diff > 4*stderr+1e-9 {
		t.Fatalf("sel = %.6f, want %.6f (diff %.2g > 4·stderr %.2g)", sel, want, diff, stderr)
	}
	if stderr <= 0 {
		t.Fatalf("stderr = %v, want positive for a dependent walk", stderr)
	}
}

// TestEstimateScaledNoScalesDelegates: empty scale list must behave exactly
// like an unscaled served query (enumeration permitted for tiny regions).
func TestEstimateScaledNoScalesDelegates(t *testing.T) {
	m := &condModel{
		p0: []float64{0.25, 0.75},
		p1: [][]float64{{0.9, 0.1}, {0.2, 0.8}},
	}
	e := NewEstimator(m, 100, 3)
	reg, err := query.CompileDomains(query.Query{Preds: []query.Predicate{
		{Col: 0, Op: query.OpEq, Code: 1},
		{Col: 1, Op: query.OpEq, Code: 0},
	}}, m.DomainSizes())
	if err != nil {
		t.Fatal(err)
	}
	sel := serveScaled(e, reg, nil).Sel
	if want := 0.75 * 0.2; math.Abs(sel-want) > 1e-12 {
		t.Fatalf("sel = %.15f, want %.15f", sel, want)
	}
}

// TestEstimateScaledRejectsRestrictedScaleCol: downscaling a predicated
// column has no defined semantics, and a scale column out of range or sized
// for another domain is a caller bug; each fails the query with an error
// naming the column instead of panicking.
func TestEstimateScaledRejectsRestrictedScaleCol(t *testing.T) {
	m := &condModel{
		p0: []float64{0.5, 0.5},
		p1: [][]float64{{0.5, 0.5}, {0.5, 0.5}},
	}
	e := NewEstimator(m, 16, 1)
	restricted, err := query.CompileDomains(query.Query{Preds: []query.Predicate{
		{Col: 1, Op: query.OpEq, Code: 0},
	}}, m.DomainSizes())
	if err != nil {
		t.Fatal(err)
	}
	open, err := query.CompileDomains(query.Query{}, m.DomainSizes())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		reg   *query.Region
		scale ScaleCol
		want  string
	}{
		{"restricted", restricted, ScaleCol{Col: 1, Inv: []float64{1, 0.5}}, "scale column 1 is restricted"},
		{"wrong length", open, ScaleCol{Col: 1, Inv: []float64{1, 0.5, 0.25}}, "scale column 1 has 3 multipliers"},
		{"out of range", open, ScaleCol{Col: 2, Inv: []float64{1, 0.5}}, "scale column 2 of 2"},
	}
	for _, c := range cases {
		res := serveScaled(e, c.reg, []ScaleCol{c.scale})
		if res.Source != SourceFailed || res.Err == nil || !strings.Contains(res.Err.Error(), c.want) {
			t.Errorf("%s: got %v (err %v), want a failed result naming %q", c.name, res.Source, res.Err, c.want)
		}
	}
}

// scaledWorkload packs scaled requests among unscaled ones over corrTable's
// four columns. Two of the scaled queries have a scale column before their
// first restricted column, one of them at position 0; one scales a column
// after its last restricted one; one scales two columns.
func scaledWorkload(t *testing.T, tbl *table.Table) []Request {
	t.Helper()
	inv := func(col int) []float64 {
		v := make([]float64, tbl.DomainSizes()[col])
		for i := range v {
			v[i] = 1 / float64(1+i%4)
		}
		return v
	}
	var reqs []Request
	for _, reg := range fusedWorkload(t, tbl) {
		reqs = append(reqs, Request{Region: reg})
	}
	scaled := []struct {
		q      query.Query
		scales []ScaleCol
	}{
		{query.Query{Preds: []query.Predicate{{Col: 2, Op: query.OpLe, Code: 3}, {Col: 3, Op: query.OpGe, Code: 2}}},
			[]ScaleCol{{Col: 0, Inv: inv(0)}}},
		{query.Query{Preds: []query.Predicate{{Col: 3, Op: query.OpLt, Code: 7}}},
			[]ScaleCol{{Col: 1, Inv: inv(1)}}},
		{query.Query{Preds: []query.Predicate{{Col: 0, Op: query.OpLe, Code: 3}}},
			[]ScaleCol{{Col: 2, Inv: inv(2)}}},
		{query.Query{Preds: []query.Predicate{{Col: 1, Op: query.OpBetween, Code: 2, Code2: 9}}},
			[]ScaleCol{{Col: 0, Inv: inv(0)}, {Col: 3, Inv: inv(3)}}},
		{query.Query{}, []ScaleCol{{Col: 2, Inv: inv(2)}}},
	}
	for i, c := range scaled {
		// Interleave, so scaled and unscaled queries alternate in the waves.
		at := min(2*i+1, len(reqs))
		reqs = append(reqs[:at], append([]Request{{Region: mustRegion(t, c.q, tbl), Scales: c.scales}}, reqs[at:]...)...)
	}
	return reqs
}

// TestEstimateScaledFusedMatchesPerQuery: scaled requests served in one fused
// call with unscaled ones answer bit for bit like the reference walk, at one
// worker and at NumCPU. A scale column before the first restricted column is
// decoded and drawn, and splits the block's rows by the codes drawn there
// before the restricted column is decoded. The second budget's last chunk is
// shorter than a decode tile and not a multiple of its height, so its block
// ends mid-tile.
func TestEstimateScaledFusedMatchesPerQuery(t *testing.T) {
	tbl := corrTable(t, 1500, 3)
	reqs := scaledWorkload(t, tbl)
	domains := tbl.DomainSizes()
	const seed = 42
	for _, samples := range []int{300, 2*anytimeChunk + decodeTileRows/2 + 3} {
		seq := NewEstimator(testMADE(domains), samples, seed)
		seq.EnumThreshold = 40
		want := seq.EstimateBatchCtx(context.Background(), reqs, ServeOptions{Workers: 1})
		for i, r := range reqs {
			if r.Scales != nil && (want[i].Source != SourceModel || want[i].Samples != samples) {
				t.Fatalf("samples=%d scaled query %d: %+v, want a full-budget sampled answer",
					samples, i, want[i])
			}
		}
		for _, w := range []int{1, runtime.NumCPU()} {
			fused := NewEstimator(testMADE(domains), samples, seed)
			fused.EnumThreshold = 40
			got := fused.EstimateFused(context.Background(), reqs, ServeOptions{Workers: w})
			for i := range want {
				if !resultEqual(got[i], want[i]) || got[i].Stop != want[i].Stop {
					t.Fatalf("samples=%d workers=%d query %d (scales %v): fused %+v != per-query %+v",
						samples, w, i, reqs[i].Scales != nil, got[i], want[i])
				}
			}
		}
	}
}
