package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/table"
)

// Oracle is the emulated perfect-accuracy model of §6.7: it answers
// conditional-distribution queries by scanning the relation, so its joint is
// exactly the empirical data distribution (entropy gap 0 bits). The paper
// uses it on the small Conviva-B dataset to isolate errors introduced by
// progressive sampling from errors introduced by density modeling.
//
// Oracle implements SequentialModel: during progressive sampling it narrows
// a matching-row set per sample path as columns are walked in order, instead
// of re-scanning the table at every column.
type Oracle struct {
	t       *table.Table
	domains []int

	// index[col][code] lists the rows holding code in col, enabling O(hits)
	// narrowing from the full table.
	index [][][]int32
	// marginal[col][code] is the count of code in col (the col-0
	// conditional and the fast path for un-narrowed sets).
	marginal [][]float64

	// condAtRow[r][col] = P(x_col | x_<col) evaluated at data row r,
	// computed once by recursive partitioning; used for entropy accounting
	// and noise calibration.
	condAtRow [][]float64

	// sampling state
	rowsets [][]int32 // nil sentinel = all rows
	lastCol int
}

// NewOracle builds the oracle over a table. Construction is O(rows × cols).
func NewOracle(t *table.Table) *Oracle {
	o := &Oracle{t: t, domains: t.DomainSizes(), lastCol: -1}
	nc := t.NumCols()
	o.index = make([][][]int32, nc)
	o.marginal = make([][]float64, nc)
	for c := 0; c < nc; c++ {
		d := o.domains[c]
		o.index[c] = make([][]int32, d)
		o.marginal[c] = make([]float64, d)
		for r, code := range t.Cols[c].Codes {
			o.index[c][code] = append(o.index[c][code], int32(r))
			o.marginal[c][code]++
		}
	}
	o.condAtRow = computeCondAtRow(t)
	return o
}

// computeCondAtRow fills P(x_col | x_<col) for every data row by recursively
// partitioning the row set on successive columns (total O(rows × cols)).
func computeCondAtRow(t *table.Table) [][]float64 {
	nc := t.NumCols()
	cond := make([][]float64, t.NumRows())
	for r := range cond {
		cond[r] = make([]float64, nc)
	}
	all := make([]int32, t.NumRows())
	for i := range all {
		all[i] = int32(i)
	}
	var rec func(rows []int32, col int)
	rec = func(rows []int32, col int) {
		if col == nc || len(rows) == 0 {
			return
		}
		codes := t.Cols[col].Codes
		// Sort the slice by this column's code, then sweep groups: cheaper
		// than a map for the skewed group sizes we see here.
		sort.Slice(rows, func(i, j int) bool { return codes[rows[i]] < codes[rows[j]] })
		total := float64(len(rows))
		lo := 0
		for lo < len(rows) {
			hi := lo + 1
			for hi < len(rows) && codes[rows[hi]] == codes[rows[lo]] {
				hi++
			}
			p := float64(hi-lo) / total
			for _, r := range rows[lo:hi] {
				cond[r][col] = p
			}
			rec(rows[lo:hi], col+1)
			lo = hi
		}
	}
	rec(all, 0)
	return cond
}

// NumCols implements Model.
func (o *Oracle) NumCols() int { return len(o.domains) }

// DomainSizes implements Model.
func (o *Oracle) DomainSizes() []int { return append([]int(nil), o.domains...) }

// SizeBytes reports the oracle's backing data size. The oracle is an
// evaluation instrument, not a deployable synopsis, so this is the table
// size itself.
func (o *Oracle) SizeBytes() int64 { return o.t.SizeBytes() }

// BeginSampling implements SequentialModel, resetting the per-path
// matching-row sets.
func (o *Oracle) BeginSampling(n int) {
	if cap(o.rowsets) < n {
		o.rowsets = make([][]int32, n)
	}
	o.rowsets = o.rowsets[:n]
	for i := range o.rowsets {
		o.rowsets[i] = nil
	}
	o.lastCol = -1
}

// Fork implements Forkable: the replica shares the table, indexes, and
// precomputed conditionals (all read-only after construction) but owns its
// own matching-row sets, so replicas can run sampling walks concurrently.
func (o *Oracle) Fork() *Oracle {
	return &Oracle{
		t:         o.t,
		domains:   o.domains,
		index:     o.index,
		marginal:  o.marginal,
		condAtRow: o.condAtRow,
		lastCol:   -1,
	}
}

// ForkModel implements Forkable.
func (o *Oracle) ForkModel() any { return o.Fork() }

// CondBatch implements Model. Columns must be visited in order 0, 1, 2, ...
// after BeginSampling (progressive sampling and enumeration both do).
func (o *Oracle) CondBatch(codes []int32, n int, col int, out [][]float64) {
	if col == 0 {
		o.BeginSampling(n)
	}
	if col != o.lastCol+1 || n != len(o.rowsets) {
		panic(fmt.Sprintf("core: Oracle.CondBatch out of sequence (col %d after %d, n %d vs %d)",
			col, o.lastCol, n, len(o.rowsets)))
	}
	nc := len(o.domains)
	colCodes := o.t.Cols[col].Codes
	for r := 0; r < n; r++ {
		if col > 0 {
			o.narrow(r, col-1, codes[r*nc+col-1])
		}
		dist := out[r][:o.domains[col]]
		for i := range dist {
			dist[i] = 0
		}
		set := o.rowsets[r]
		if set == nil {
			// Full table: the marginal.
			total := float64(o.t.NumRows())
			for code, cnt := range o.marginal[col] {
				dist[code] = cnt / total
			}
			continue
		}
		if len(set) == 0 {
			continue // prefix unsupported: conditional is identically zero
		}
		inv := 1 / float64(len(set))
		for _, row := range set {
			dist[colCodes[row]] += inv
		}
	}
	o.lastCol = col
}

// narrow intersects sample r's row set with {rows : col == code}.
func (o *Oracle) narrow(r int, col int, code int32) {
	set := o.rowsets[r]
	if set == nil {
		// Copy, because later narrowing filters in place and the index
		// slices must stay intact.
		src := o.index[col][code]
		set = make([]int32, len(src))
		copy(set, src)
		o.rowsets[r] = set
		return
	}
	codes := o.t.Cols[col].Codes
	k := 0
	for _, row := range set {
		if codes[row] == code {
			set[k] = row
			k++
		}
	}
	o.rowsets[r] = set[:k]
}

// LogProbBatch implements Model: log of the empirical joint, computed by
// narrowing a row set across columns (early exit when it empties).
func (o *Oracle) LogProbBatch(codes []int32, n int, dst []float64) {
	nc := len(o.domains)
	total := float64(o.t.NumRows())
	for r := 0; r < n; r++ {
		tuple := codes[r*nc : (r+1)*nc]
		set := o.index[0][tuple[0]]
		match := len(set)
		if match > 0 && nc > 1 {
			cur := make([]int32, match)
			copy(cur, set)
			for c := 1; c < nc && len(cur) > 0; c++ {
				colCodes := o.t.Cols[c].Codes
				k := 0
				for _, row := range cur {
					if colCodes[row] == tuple[c] {
						cur[k] = row
						k++
					}
				}
				cur = cur[:k]
			}
			match = len(cur)
		}
		if match == 0 {
			dst[r] = math.Inf(-1)
		} else {
			dst[r] = math.Log(float64(match) / total)
		}
	}
}

// NoisyOracle wraps an Oracle with a controlled amount of model error: every
// conditional is mixed with the uniform distribution, P̂ = (1−ε)P + εU
// (falling back to pure uniform off the data's support). Figure 7 sweeps the
// resulting entropy gap to measure how accurate the density model has to be
// for progressive sampling to stay accurate.
type NoisyOracle struct {
	*Oracle
	Eps float64
}

// NewNoisyOracle wraps o with mixing weight eps ∈ [0, 1].
func NewNoisyOracle(o *Oracle, eps float64) *NoisyOracle {
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("core: noise eps %v outside [0,1]", eps))
	}
	return &NoisyOracle{Oracle: o, Eps: eps}
}

// ForkModel implements Forkable. It must shadow the embedded Oracle's method:
// promoting that one would silently drop the noise mixing from replicas.
func (no *NoisyOracle) ForkModel() any {
	return &NoisyOracle{Oracle: no.Oracle.Fork(), Eps: no.Eps}
}

// CondBatch mixes each oracle conditional with uniform.
func (no *NoisyOracle) CondBatch(codes []int32, n int, col int, out [][]float64) {
	no.Oracle.CondBatch(codes, n, col, out)
	d := no.domains[col]
	u := no.Eps / float64(d)
	for r := 0; r < n; r++ {
		dist := out[r][:d]
		var mass float64
		for _, p := range dist {
			mass += p
		}
		if mass == 0 {
			// Unsupported prefix: the noisy model's conditional is uniform.
			uu := 1 / float64(d)
			for i := range dist {
				dist[i] = uu
			}
			continue
		}
		for i := range dist {
			dist[i] = (1-no.Eps)*dist[i] + u
		}
	}
}

// LogProbBatch evaluates the noisy model's joint: the product over columns
// of the mixed conditionals, computed by sequential narrowing.
func (no *NoisyOracle) LogProbBatch(codes []int32, n int, dst []float64) {
	nc := len(no.domains)
	for r := 0; r < n; r++ {
		tuple := codes[r*nc : (r+1)*nc]
		var lp float64
		var cur []int32 // nil = all rows
		alive := true
		for c := 0; c < nc; c++ {
			d := float64(no.domains[c])
			var cond float64
			if alive {
				var matchIn, matchOut float64
				if cur == nil {
					matchIn = float64(no.t.NumRows())
					matchOut = no.marginal[c][tuple[c]]
				} else {
					matchIn = float64(len(cur))
					colCodes := no.t.Cols[c].Codes
					for _, row := range cur {
						if colCodes[row] == tuple[c] {
							matchOut++
						}
					}
				}
				if matchIn > 0 {
					cond = (1-no.Eps)*(matchOut/matchIn) + no.Eps/d
				} else {
					alive = false
					cond = 1 / d
				}
			} else {
				cond = 1 / d
			}
			lp += math.Log(cond)
			// Narrow for the next column.
			if alive {
				if cur == nil {
					src := no.index[c][tuple[c]]
					cur = make([]int32, len(src))
					copy(cur, src)
				} else {
					colCodes := no.t.Cols[c].Codes
					k := 0
					for _, row := range cur {
						if colCodes[row] == tuple[c] {
							cur[k] = row
							k++
						}
					}
					cur = cur[:k]
				}
				if len(cur) == 0 {
					alive = false
				}
			}
		}
		dst[r] = lp
	}
}

// NoisyGapBits computes the entropy gap (bits) the mixing weight eps induces
// over the oracle's table: H(P, P̂_eps) − H(P), evaluated exactly from the
// precomputed chain-rule factors.
func (o *Oracle) NoisyGapBits(eps float64) float64 {
	nc := len(o.domains)
	var gap float64
	n := float64(len(o.condAtRow))
	for r := range o.condAtRow {
		for c := 0; c < nc; c++ {
			p := o.condAtRow[r][c]
			q := (1-eps)*p + eps/float64(o.domains[c])
			gap += math.Log2(p) - math.Log2(q)
		}
	}
	return gap / n
}

// CalibrateNoise finds the mixing weight eps whose induced entropy gap is
// targetBits, by bisection (the gap is monotone in eps).
func (o *Oracle) CalibrateNoise(targetBits float64) float64 {
	if targetBits <= 0 {
		return 0
	}
	lo, hi := 0.0, 1.0
	if o.NoisyGapBits(hi) < targetBits {
		return hi // even pure uniform cannot reach the target
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if o.NoisyGapBits(mid) < targetBits {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
