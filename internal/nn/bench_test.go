package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// ceBatch builds a 512×1900 logit batch — the shape of one embedded DMV
// column's decode output over a default training batch.
func ceBatch(seed int64) (*tensor.Matrix, []int32, []float64) {
	rng := rand.New(rand.NewSource(seed))
	logits := tensor.New(512, 1900)
	logits.Randn(rng, 1)
	targets := make([]int32, 512)
	for i := range targets {
		targets[i] = int32(rng.Intn(1900))
	}
	return logits, targets, make([]float64, 512)
}

func BenchmarkSoftmaxCEScalar(b *testing.B) {
	// Reference: one row at a time, the pre-batching training loop's shape.
	logits, targets, _ := ceBatch(1)
	grad := make([]float32, logits.Cols)
	exps := make([]float64, logits.Cols)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for r := 0; r < logits.Rows; r++ {
			sink += SoftmaxCE(logits.Row(r), int(targets[r]), grad, exps)
		}
	}
	_ = sink
}

func BenchmarkSoftmaxCERows(b *testing.B) {
	logits, targets, rowLoss := ceBatch(1)
	scratch := tensor.New(logits.Rows, logits.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch.Data, logits.Data)
		SoftmaxCERows(scratch, targets, scratch, rowLoss)
	}
}

// BenchmarkSoftmaxProb is the decode softmax of one valid_date row: 2101
// logits into float64 probabilities (max, exp-sum and normalise).
func BenchmarkSoftmaxProb(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	logits := make([]float32, 2101)
	for i := range logits {
		logits[i] = float32(rng.NormFloat64() * 8)
	}
	out := make([]float64, len(logits))
	for i := 0; i < b.N; i++ {
		SoftmaxProb(logits, out)
	}
}
