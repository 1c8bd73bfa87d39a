package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestExpRowMatchesMathExp checks the vector exp kernel (when active) against
// float64 math.Exp over softmax-shaped inputs: max-subtracted, so arguments
// are ≤ 0 down to deep underflow.
func TestExpRowMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{8, 16, 64, 256} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64() * 30)
		}
		mx := src[0]
		for _, v := range src[1:] {
			if v > mx {
				mx = v
			}
		}
		dst := make([]float64, n)
		sum, head := ExpRow(dst, src, mx)
		if head == 0 {
			t.Skip("no vector exp kernel on this machine")
		}
		if head != n {
			t.Fatalf("n=%d: processed %d", n, head)
		}
		var wantSum float64
		for i, v := range src {
			want := math.Exp(float64(v - mx))
			if want < 2e-38 { // kernel flushes below float32 normal range
				want = 0
			}
			wantSum += dst[i]
			if d := math.Abs(dst[i] - want); want != 0 && d/want > 1e-6 {
				t.Fatalf("n=%d i=%d: got %g want %g", n, i, dst[i], want)
			} else if want == 0 && dst[i] != 0 {
				t.Fatalf("n=%d i=%d: got %g want flush to 0", n, i, dst[i])
			}
		}
		if d := math.Abs(sum - wantSum); d > 1e-9*math.Abs(wantSum) {
			t.Fatalf("n=%d: sum %g, elements add to %g", n, sum, wantSum)
		}
	}
}

// TestExpRowRejectsMismatch pins the length contract.
func TestExpRowRejectsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	ExpRow(make([]float64, 8), make([]float32, 9), 0)
}

// expShiftKernels runs f once per vector exp kernel this machine has, with
// the kernel selected, naming it; on a machine with neither it runs nothing.
func expShiftKernels(t *testing.T, f func(name string)) {
	if !useFMA {
		t.Log("no AVX2+FMA: ExpShift is math.Exp on this machine")
		return
	}
	withAVX512(false, func() { f("avx2") })
	if useAVX512 {
		f("avx512")
	}
}

// expTies returns shifts x in ±707 whose product with LOG2E is exactly
// k + 1/2, so math.Exp's CVTSD2SL rounds a tie: the kernels must round it the
// same way (to even).
func expTies() []float64 {
	const log2e = 1.4426950408889634073599246810018920
	var ties []float64
	for k := -1020; k <= 1019; k += 7 {
		t := float64(k) + 0.5
		x := t / log2e
		for s := 0; s < 64; s++ {
			if x*log2e == t && math.Abs(x) <= 707 {
				ties = append(ties, x)
				break
			}
			if x*log2e < t {
				x = math.Nextafter(x, math.Inf(1))
			} else {
				x = math.Nextafter(x, math.Inf(-1))
			}
		}
	}
	return ties
}

// TestExpShiftMatchesMathExp checks both kernel widths against math.Exp bit
// for bit: random rows of every length up to 2104, and rows with one planted
// lane (a rounding tie, ±707 and just past it, the denormal range, ±Inf, NaN,
// ±0) at each position class (a full step and the tail) for every length
// mod 8. Rows the kernel must hand back to math.Exp (a lane past ±707 or
// NaN) are checked too, and so is the kernel's verdict on them.
func TestExpShiftMatchesMathExp(t *testing.T) {
	ties := expTies()
	if len(ties) < 100 {
		t.Fatalf("found only %d rounding ties", len(ties))
	}
	type plant struct {
		x      float64 // the lane's shifted value, float64(src) - mx
		inside bool    // within the kernels' range
	}
	var plants []plant
	for _, x := range ties {
		plants = append(plants, plant{x, true})
	}
	below := math.Nextafter(-707, math.Inf(-1))
	plants = append(plants,
		plant{-707, true}, plant{707, true}, plant{0, true}, plant{math.Copysign(0, -1), true},
		plant{below, false}, plant{-below, false},
		plant{math.Inf(-1), false}, plant{math.Inf(1), false}, plant{math.NaN(), false})
	for x := -708.0; x >= -745.5; x -= 0.75 {
		plants = append(plants, plant{x, false})
	}
	check := func(name string, dst []float64, src []float32, mx float64) {
		t.Helper()
		for i := range dst {
			dst[i] = -1
		}
		ExpShift(dst, src, mx)
		for i, v := range src {
			want := math.Exp(float64(v) - mx)
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("%s: n=%d i=%d x=%v: got %v (%#x), math.Exp %v (%#x)",
					name, len(src), i, float64(v)-mx, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
			}
		}
	}
	expShiftKernels(t, func(name string) {
		rng := rand.New(rand.NewSource(43))
		for n := 1; n <= 2104; n++ {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32(rng.NormFloat64() * 40)
			}
			check(name, make([]float64, n), src, float64(MaxRow(src)))
		}
		// Planted lanes. For a nonzero finite x, src holds 0 in the planted
		// lane and mx = -x, so the lane's shift is exactly x, and the other
		// lanes lie within 1 of it towards 0. ±0, ±Inf and NaN go into src
		// with mx = 0 beside random lanes.
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 2097, 2098, 2099, 2100, 2101, 2102, 2103, 2104} {
			src := make([]float32, n)
			dst := make([]float64, n)
			for _, p := range plants {
				mx := -p.x
				if math.IsInf(p.x, 0) || math.IsNaN(p.x) {
					mx = 0
				}
				for _, at := range []int{0, n - 1, (n - 1) &^ 7, rng.Intn(n)} {
					for i := range src {
						src[i] = float32(rng.Float64()*4 - 2)
						if mx != 0 {
							src[i] = float32(-math.Copysign(rng.Float64(), p.x))
						}
					}
					src[at] = 0
					if mx == 0 {
						src[at] = float32(p.x)
					}
					check(name, dst, src, mx)
					// The AVX2 kernel leaves a tail of n mod 4 to math.Exp.
					inKernel := name == "avx512" || at < n&^3
					if ok := runExpKernel(name, dst, src, mx); inKernel && ok != p.inside {
						t.Fatalf("%s: n=%d x=%v at %d: kernel verdict %v, want %v", name, n, p.x, at, ok, p.inside)
					}
				}
			}
		}
	})
}

// runExpKernel calls the named kernel directly over the part of src it
// takes and returns its verdict (true for an empty part).
func runExpKernel(name string, dst []float64, src []float32, mx float64) bool {
	if name == "avx512" {
		return expShiftAVX512(&src[0], len(src), mx, &dst[0])
	}
	head := len(src) &^ 3
	if head == 0 {
		return true
	}
	return expShiftAVX2(&src[0], head, mx, &dst[0])
}
