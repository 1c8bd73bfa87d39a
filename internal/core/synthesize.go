package core

import (
	"math/rand"

	"repro/internal/query"
)

// SampleTuples draws n tuples from the model's learned joint distribution,
// optionally restricted to a query region (pass nil for unrestricted). This
// is the §8 "approximate query processing" direction: sampling
// in-distribution tuples from the compact synopsis instead of the base
// relation. The returned slice is row-major with stride NumCols.
//
// Restricted sampling reuses the progressive-sampling machinery: each column
// is drawn from the model's conditional re-normalized to the region, so the
// tuples follow P̂(x | x ∈ R) (up to the importance weights, which are
// discarded here — callers needing the region density should use
// Estimator.EstimateRegion).
func SampleTuples(m Model, reg *query.Region, n int, seed int64) []int32 {
	nc := m.NumCols()
	domains := m.DomainSizes()
	rng := rand.New(rand.NewSource(seed))
	codes := make([]int32, n*nc)
	maxDom := 0
	for _, d := range domains {
		if d > maxDom {
			maxDom = d
		}
	}
	probs := make([][]float64, n)
	for i := range probs {
		probs[i] = make([]float64, maxDom)
	}
	if beg, ok := m.(SequentialModel); ok {
		beg.BeginSampling(n)
	}
	for col := 0; col < nc; col++ {
		m.CondBatch(codes, n, col, probs)
		var cr *query.ColumnRange
		if reg != nil {
			cr = &reg.Cols[col]
		}
		for r := 0; r < n; r++ {
			codes[r*nc+col] = drawFrom(probs[r][:domains[col]], cr, rng)
		}
	}
	return codes
}

// drawFrom samples an index proportional to p, restricted to cr when
// non-nil. Falls back to the first admissible index if the distribution has
// no mass there (e.g. an unsupported prefix under an oracle model).
func drawFrom(p []float64, cr *query.ColumnRange, rng *rand.Rand) int32 {
	lo, hi := 0, len(p)
	if cr != nil {
		lo, hi = int(cr.Lo), int(cr.Hi)
	}
	var mass float64
	for v := lo; v < hi; v++ {
		if cr == nil || cr.Valid[v] {
			mass += p[v]
		}
	}
	if mass <= 0 {
		for v := lo; v < hi; v++ {
			if cr == nil || cr.Valid[v] {
				return int32(v)
			}
		}
		return int32(lo)
	}
	u := rng.Float64() * mass
	var cum float64
	for v := lo; v < hi; v++ {
		if cr != nil && !cr.Valid[v] {
			continue
		}
		cum += p[v]
		if cum >= u {
			return int32(v)
		}
	}
	for v := hi - 1; v >= lo; v-- {
		if cr == nil || cr.Valid[v] {
			return int32(v)
		}
	}
	return int32(lo)
}

// OutlierScores returns -log2 P̂(x) for each of n tuples: high scores mark
// tuples the model considers unlikely — the §8 outlier-detection/data-
// cleaning use of a likelihood model. Scores are in bits.
func OutlierScores(m Model, codes []int32, n int) []float64 {
	lp := make([]float64, n)
	m.LogProbBatch(codes, n, lp)
	const log2e = 1.4426950408889634
	for i := range lp {
		lp[i] = -lp[i] * log2e
	}
	return lp
}
