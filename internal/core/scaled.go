package core

import (
	"fmt"

	"repro/internal/query"
)

// This file extends Algorithm 1 with NeuroCard-style fanout downscaling: the
// progressive-sampling walk over a join-schema model multiplies each path's
// weight by the expected inverse fanout of every scale column, so the
// estimate is unbiased for sub-join cardinalities (Yang et al. 2020, §5.2 of
// the NeuroCard paper; see PAPERS.md). Scale columns are ordinary model
// columns — the virtual fanout columns a join sampler emits — that are never
// predicated; the walk Rao-Blackwellizes over them: instead of drawing a
// fanout value and dividing by it (high variance), the path weight absorbs
// Σ_v P̂(v|prefix)·Inv[v] exactly, then a value is drawn from the tilted
// distribution P̂(v|prefix)·Inv[v]/Σ so later columns are conditioned under
// the correctly reweighted path measure. A query's scale columns ride in its
// Request, and the walk (walkBlock) draws them: the tilted terms p[v]·inv[v]
// fill the column's draw table (buildTable) where an in-range column's terms
// are p[v].

// ScaleCol attaches an importance downscale to one model column: during the
// walk the path weight is multiplied by E[Inv[X_col] | x_<col] under the
// model. Col is a model column index; Inv holds one strictly positive
// multiplier per domain code (1/fanout for join columns).
// A query with scale columns always samples (never enumerates), and its walk
// extends past the last restricted column to the last scale column; results
// are bit-identical across entry points, chunk for chunk with the unscaled
// walk's RNG convention.
type ScaleCol struct {
	Col int
	Inv []float64
}

// scaleByPos indexes the scale columns' inverse fanouts by model position
// (nil when there are none), and rejects scale columns that are out of
// range, sized for another domain, or restricted by the region (a predicated
// fanout column has no defined downscaling semantics).
func (e *Estimator) scaleByPos(reg *query.Region, scales []ScaleCol) ([][]float64, error) {
	if len(scales) == 0 {
		return nil, nil
	}
	n := len(reg.Cols)
	byCol := make([][]float64, n)
	for _, s := range scales {
		if s.Col < 0 || s.Col >= n {
			return nil, fmt.Errorf("core: scale column %d of %d", s.Col, n)
		}
		if len(s.Inv) != len(reg.Cols[s.Col].Valid) {
			return nil, fmt.Errorf("core: scale column %d has %d multipliers over a %d-code domain",
				s.Col, len(s.Inv), len(reg.Cols[s.Col].Valid))
		}
		if !reg.Cols[s.Col].IsAll() {
			return nil, fmt.Errorf("core: scale column %d is restricted", s.Col)
		}
		byCol[s.Col] = s.Inv
	}
	return byCol, nil
}
