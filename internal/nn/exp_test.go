package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestExpfAccuracy sweeps the argument range the decode path produces
// (max-subtracted logits, so mostly ≤ 0, but positive values are checked too)
// and bounds the relative error against float64 math.Exp.
func TestExpfAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(x float32) {
		got := float64(Expf(x))
		want := math.Exp(float64(x))
		if want < 2e-38 { // below float32 normal range: flush-to-zero is in-contract
			if got > 2e-38 {
				t.Fatalf("Expf(%g) = %g, want (near-)underflow", x, got)
			}
			return
		}
		if rel := math.Abs(got-want) / want; rel > 5e-7 {
			t.Fatalf("Expf(%g) = %g, want %g (rel err %g)", x, got, want, rel)
		}
	}
	for _, x := range []float32{0, 1, -1, 0.5, -0.5, 20, -20, 80, -80, -86.9,
		float32(math.Ln2) / 2, -float32(math.Ln2) / 2} {
		check(x)
	}
	for i := 0; i < 20000; i++ {
		check(float32(rng.Float64()*160 - 140)) // [-140, 20], decode-heavy range
	}
	if v := Expf(-200); v != 0 {
		t.Fatalf("Expf(-200) = %g, want 0", v)
	}
	if v := Expf(200); !math.IsInf(float64(v), 1) {
		t.Fatalf("Expf(200) = %g, want +Inf", v)
	}
	if v := Expf(float32(math.NaN())); v == v {
		t.Fatalf("Expf(NaN) = %g, want NaN", v)
	}
}

// TestSoftmaxProbMatchesSoftmax checks the fast softmax against the float64
// reference: normalization is exact by construction, per-element relative
// error bounded by the Expf error.
func TestSoftmaxProbMatchesSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(700)
		logits := make([]float32, n)
		for i := range logits {
			logits[i] = float32(rng.NormFloat64() * 8)
		}
		want := make([]float64, n)
		got := make([]float64, n)
		Softmax(logits, want)
		SoftmaxProb(logits, got)
		var sum float64
		for i := range got {
			sum += got[i]
			if want[i] == 0 {
				continue
			}
			if rel := math.Abs(got[i]-want[i]) / want[i]; rel > 2e-6 {
				t.Fatalf("trial %d: p[%d] = %g, want %g (rel %g)", trial, i, got[i], want[i], rel)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("trial %d: probabilities sum to %g", trial, sum)
		}
	}
}

// softmaxProbScalarPasses is SoftmaxProb with its max scan and normalise as
// the scalar loops they were before the row kernels: the reference the
// vectorised passes must reproduce bit for bit.
func softmaxProbScalarPasses(logits []float32, out []float64) {
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	sum, head := tensor.ExpRow(out, logits, mx)
	for i, v := range logits[head:] {
		e := float64(0)
		if x := v - mx; x >= expfLo {
			e = float64(Expf(x))
		}
		out[head+i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}

// TestSoftmaxProbMatchesScalarPasses checks the decode softmax against the
// scalar max and normalise passes on rows of every length 1..40 plus the
// widest DMV domain, with NaN at index 0, in the vector prefix and in the
// tail, and with ±0 and ±Inf logits, with the kernels on and off.
func TestSoftmaxProbMatchesScalarPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nan := float32(math.NaN())
	lengths := []int{2101}
	for n := 1; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	var rows [][]float32
	for _, n := range lengths {
		base := make([]float32, n)
		for i := range base {
			base[i] = float32(rng.NormFloat64() * 6)
		}
		for variant := 0; variant < 6; variant++ {
			r := append([]float32(nil), base...)
			switch variant {
			case 1:
				r[0] = nan
			case 2: // inside the vector prefix, when there is one
				r[rng.Intn(max(n&^7, 1))] = nan
			case 3:
				r[n-1] = nan
			case 4: // the maximum is a zero, signed both ways
				for i := range r {
					r[i] = -1 - float32(math.Abs(float64(r[i])))
				}
				r[rng.Intn(n)] = float32(math.Copysign(0, -1))
				r[rng.Intn(n)] = 0
			case 5:
				r[rng.Intn(n)] = float32(math.Inf(-1))
				r[rng.Intn(n)] = float32(math.Inf(1))
			}
			rows = append(rows, r)
		}
	}
	for _, accel := range []bool{true, false} {
		prev := tensor.SetAccel(accel)
		for _, r := range rows {
			got := make([]float64, len(r))
			want := make([]float64, len(r))
			SoftmaxProb(r, got)
			softmaxProbScalarPasses(r, want)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					tensor.SetAccel(prev)
					t.Fatalf("accel=%v n=%d: p[%d] = %v (%#x), want %v (%#x)", accel, len(r), i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		tensor.SetAccel(prev)
	}
}
