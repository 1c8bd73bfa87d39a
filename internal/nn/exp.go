package nn

import (
	"math"

	"repro/internal/tensor"
)

// Fast float32 exponential for the sampling decode path. Profiles of
// progressive sampling put ~30% of serving time inside softmax, most of it in
// the float64 math.Exp — far more precision than a float32 logit deserves.
// Expf trades that slack for speed: a degree-6 minimax polynomial on the
// reduced interval [-ln2/2, ln2/2] plus an exponent-field scale, the classic
// Cephes expf scheme. Max relative error is ~2 ulps of float32 (~2.4e-7),
// well inside the 1e-6 accuracy contract the serving path advertises, and the
// function is branch-light, portable Go (the compiler intrinsifies math.Floor
// and the bit casts), and bit-deterministic across runs and platforms.

const (
	expfLog2E = 1.4426950408889634 // 1/ln 2
	// ln2 split into a high part exactly representable in float32 and a low
	// correction, so r = x - n·ln2 is computed without cancellation error.
	expfC1 float32 = 0.693359375
	expfC2 float32 = -2.12194440e-4
	// Beyond these the float32 result overflows/underflows the normal range;
	// the exponent-field scaling below is only valid for normal results.
	expfHi = 88.02969 // log(MaxFloat32) - ln2/2, keeps 2^n scaling in range
	expfLo = -87.0    // exp(-87) ≈ 1.6e-38, just above the smallest normal
)

// Expf returns e^x as float32 with ~2 ulp relative accuracy.
func Expf(x float32) float32 {
	if x != x { // NaN
		return x
	}
	if x > expfHi {
		return float32(math.Inf(1))
	}
	if x < expfLo {
		return 0
	}
	// n = round(x / ln2); reduce to r = x - n·ln2 ∈ [-ln2/2, ln2/2].
	n := float32(math.Floor(float64(x)*expfLog2E + 0.5))
	r := x - n*expfC1
	r -= n * expfC2
	// exp(r) ≈ 1 + r + r²·P(r), minimax on the reduced interval.
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	e := p*r*r + r + 1
	// Scale by 2^n by adding n to the exponent field; e ∈ [~0.7, ~1.42] and
	// the input clamps keep the result normal, so no carry/denormal cases.
	return math.Float32frombits(math.Float32bits(e) + uint32(int32(n))<<23)
}

// SoftmaxProb writes the softmax of logits into out using the float32 Expf
// kernel with float64 accumulation for the normalizer, skipping the logsumexp
// return value. It is the decode-path variant of Softmax: same stability
// (max-subtracted arguments are ≤ 0), ~3× cheaper, accurate to ~1e-7 relative
// — probabilities feed a Monte Carlo estimator whose own noise floor is
// orders of magnitude above that.
func SoftmaxProb(logits []float32, out []float64) {
	if len(logits) != len(out) {
		panic("nn: SoftmaxProb length mismatch")
	}
	// The max, the exp-sum and the normalise each run a vector kernel (AVX2,
	// or AVX-512 for the exp-sum and the normalise where the CPU has it) over
	// a prefix of whole vectors and the scalar loop over the tail, or the
	// scalar loop over the whole row when no kernel is active
	// (SetAccel(false), non-amd64). The max and the normalise are bit for bit
	// the scalar pass. The exp-sum's elements are too, but its kernels add
	// in eight float64 lanes, not left to right, so the sum — and with it
	// every probability — differs in the last bits from a scalar run; the
	// per-host determinism contract allows that, and the AVX2 and AVX-512
	// kernels agree with each other bit for bit. Vectorization runs across
	// domain elements *within* a row, so a row's bits depend only on its own
	// contents — never on where the row sits in a fused block — which is what
	// the fused-vs-sequential bit-identity contract needs. The normalised row
	// stays float64: the inverse-CDF draw accumulates it, and the row is what
	// BlockModel.DecodeBlock returns.
	mx := tensor.MaxRow(logits)
	sum, head := tensor.ExpRow(out, logits, mx)
	// The Expf body is inlined here: max-subtracted arguments are ≤ 0 and
	// finite, so only the underflow guard survives, and the polynomial stays
	// in registers across the row instead of paying a call per element.
	for i, v := range logits[head:] {
		i += head
		x := v - mx
		var e float64
		if x >= expfLo {
			n := float32(math.Floor(float64(x)*expfLog2E + 0.5))
			r := x - n*expfC1
			r -= n * expfC2
			p := float32(1.9875691500e-4)
			p = p*r + 1.3981999507e-3
			p = p*r + 8.3334519073e-3
			p = p*r + 4.1665795894e-2
			p = p*r + 1.6666665459e-1
			p = p*r + 5.0000001201e-1
			f := p*r*r + r + 1
			e = float64(math.Float32frombits(math.Float32bits(f) + uint32(int32(n))<<23))
		}
		out[i] = e
		sum += e
	}
	tensor.ScaleRow(out, 1/sum)
}
