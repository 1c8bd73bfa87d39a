package core

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/table"
)

// The paper's models use the table's natural column order (§3.2: "the model
// can be architected to use any ordering(s) of the attributes; in this work
// we simply pick the table order"). This file implements the generalization:
// training a model under an arbitrary column permutation and querying it
// through an order-aware estimator.

// PermutedDomains returns the table's domain sizes rearranged so model
// position i holds original column perm[i].
func PermutedDomains(t *table.Table, perm []int) ([]int, error) {
	if err := checkPerm(perm, t.NumCols()); err != nil {
		return nil, err
	}
	out := make([]int, len(perm))
	for i, c := range perm {
		out[i] = t.Cols[c].DomainSize()
	}
	return out, nil
}

func checkPerm(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("core: permutation length %d for %d columns", len(perm), n)
	}
	seen := make([]bool, n)
	for _, c := range perm {
		if c < 0 || c >= n || seen[c] {
			return fmt.Errorf("core: invalid permutation %v", perm)
		}
		seen[c] = true
	}
	return nil
}

// TrainWithOrder trains a model whose autoregressive order is perm (model
// position i ← original column perm[i]); the model must have been built over
// PermutedDomains(t, perm).
func TrainWithOrder(m Trainable, t *table.Table, perm []int, cfg TrainConfig) ([]float64, error) {
	if err := checkPerm(perm, t.NumCols()); err != nil {
		return nil, err
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.LR <= 0 {
		cfg.LR = 2e-3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LR)
	n, nc := t.NumRows(), t.NumCols()
	order := rng.Perm(n)
	batch := make([]int32, cfg.BatchSize*nc)
	var history []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		var steps int
		for off := 0; off+cfg.BatchSize <= n; off += cfg.BatchSize {
			for bi := 0; bi < cfg.BatchSize; bi++ {
				row := order[off+bi]
				for mi, c := range perm {
					batch[bi*nc+mi] = t.Cols[c].Codes[row]
				}
			}
			sum += m.TrainStep(batch, cfg.BatchSize, opt)
			steps++
		}
		nll := sum / float64(max(1, steps))
		history = append(history, nll)
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch, nll) {
			break
		}
	}
	return history, nil
}

// NewEstimatorWithOrder wraps a model trained under perm so it can be
// queried with regions expressed in the *original* column order: progressive
// sampling walks the model's order and reads each column's range from
// reg.Cols[perm[i]].
func NewEstimatorWithOrder(m Model, samples int, seed int64, perm []int) (*Estimator, error) {
	if err := checkPerm(perm, m.NumCols()); err != nil {
		return nil, err
	}
	e := NewEstimator(m, samples, seed)
	e.order = append([]int(nil), perm...)
	return e, nil
}

// colAt maps a model position to the original column index.
func (e *Estimator) colAt(modelPos int) int {
	if e.order == nil {
		return modelPos
	}
	return e.order[modelPos]
}
