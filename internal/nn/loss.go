package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// The loss and softmax passes share one max+exp pass: tensor.MaxRow finds the
// row maximum mx, tensor.ExpShift writes e_i = math.Exp(float64(v_i) - mx)
// into float64 scratch (the softmax output itself, or space the caller owns),
// and the sum of e adds left to right. Those bits are the scalar loop's,
// `mx = max; sum += math.Exp(float64(v) - mx)`: MaxRow ranks as that loop's
// comparison does, ExpShift is math.Exp bit for bit, and the order of the
// sum is kept. The exp kernel takes the time; the sum is one dependent add
// per element.

// expShift fills e with the row's shifted exponentials and returns the row
// maximum and their left-to-right sum.
func expShift(logits []float32, e []float64) (mx, sum float64) {
	mx = float64(tensor.MaxRow(logits))
	tensor.ExpShift(e, logits, mx)
	for _, v := range e {
		sum += v
	}
	return mx, sum
}

// scratchRow returns the first n entries of scratch, which must hold them.
func scratchRow(scratch []float64, n int, op string) []float64 {
	if len(scratch) < n {
		panic(fmt.Sprintf("nn: %s scratch holds %d of %d logits", op, len(scratch), n))
	}
	return scratch[:n]
}

// Softmax writes the softmax of logits into out (float64, since downstream
// probability arithmetic in progressive sampling accumulates in float64) and
// returns the log of the normalizer (logsumexp). It is numerically stable
// under large positive or negative logits.
func Softmax(logits []float32, out []float64) float64 {
	if len(logits) != len(out) {
		panic("nn: Softmax length mismatch")
	}
	mx, sum := expShift(logits, out)
	tensor.ScaleRow(out, 1/sum)
	return mx + math.Log(sum)
}

// SoftmaxCE computes the cross-entropy loss -log softmax(logits)[target] and
// writes the gradient (softmax - onehot(target)) into dLogits. logits and
// dLogits may alias. scratch holds the row's exponentials and must have at
// least len(logits) entries; callers keep one per goroutine. The returned
// loss is in nats.
func SoftmaxCE(logits []float32, target int, dLogits []float32, scratch []float64) float64 {
	if target < 0 || target >= len(logits) {
		panic("nn: SoftmaxCE target out of range")
	}
	e := scratchRow(scratch, len(logits), "SoftmaxCE")
	lt := float64(logits[target])
	mx, sum := expShift(logits, e)
	loss := mx + math.Log(sum) - lt
	// Each probability is e rounded to float32, widened and scaled: the
	// scalar pass stashed float32(e) in dLogits before normalizing it.
	invSum := 1 / sum
	dl := dLogits[:len(logits)]
	for i, v := range e {
		dl[i] = float32(float64(float32(v)) * invSum)
	}
	dl[target] -= 1
	return loss
}

// SoftmaxCERows computes softmax cross-entropy independently over each row of
// logits against the per-row targets, writing gradients into dLogits and each
// row's loss (nats) into rowLoss. logits and dLogits may be the same matrix:
// the gradient overwrites the logits, which is what the batched training path
// wants. Rows are processed in parallel, but every output cell is owned by
// exactly one row and no cross-row reduction happens here, so the results are
// bit-deterministic regardless of worker count; callers that need a total
// loss sum rowLoss sequentially.
func SoftmaxCERows(logits *tensor.Matrix, targets []int32, dLogits *tensor.Matrix, rowLoss []float64) {
	n := logits.Rows
	if dLogits.Rows != n || dLogits.Cols != logits.Cols || len(targets) < n || len(rowLoss) < n {
		panic("nn: SoftmaxCERows size mismatch")
	}
	tensor.ParallelFor(n, func(start, end int) {
		scratch := make([]float64, logits.Cols)
		for r := start; r < end; r++ {
			rowLoss[r] = SoftmaxCE(logits.Row(r), int(targets[r]), dLogits.Row(r), scratch)
		}
	})
}

// LogProb returns log softmax(logits)[target] in nats without computing
// gradients. Used for point-density evaluation and entropy-gap accounting.
// scratch holds the row's exponentials, as for SoftmaxCE.
func LogProb(logits []float32, target int, scratch []float64) float64 {
	mx, sum := expShift(logits, scratchRow(scratch, len(logits), "LogProb"))
	return float64(logits[target]) - mx - math.Log(sum)
}
