package tensor

import (
	"math"
	"math/rand"
	"testing"
)

var (
	nan32    = float32(math.NaN())
	negZero  = float32(math.Copysign(0, -1))
	posInf32 = float32(math.Inf(1))
	negInf32 = float32(math.Inf(-1))
)

// specialRows returns rows of every length 1..40 (random values), each
// variant planting NaN at index 0, NaN inside the vector prefix, NaN in the
// tail, and ±0 and ±Inf, so every kernel meets every case on each side of its
// vector/tail boundary; plus longer rows with NaNs inside the max kernel's
// unrolled and remainder loops.
func specialRows(rng *rand.Rand) [][]float32 {
	var rows [][]float32
	for n := 1; n <= 40; n++ {
		head := n &^ 7
		base := make([]float32, n)
		for i := range base {
			base[i] = float32(rng.NormFloat64() * 4)
		}
		plant := func(set func(r []float32)) {
			r := append([]float32(nil), base...)
			set(r)
			rows = append(rows, r)
		}
		plant(func(r []float32) {})
		plant(func(r []float32) { r[0] = nan32 })
		plant(func(r []float32) { r[rng.Intn(n)] = nan32 })
		if head > 0 {
			plant(func(r []float32) { r[rng.Intn(head)] = nan32 })
		}
		if head < n {
			plant(func(r []float32) { r[head+rng.Intn(n-head)] = nan32 })
		}
		// Signed zeros as the row maximum, in both orders and in the tail.
		plant(func(r []float32) {
			for i := range r {
				r[i] = -1 - float32(i)
			}
			r[rng.Intn(n)] = negZero
			r[rng.Intn(n)] = 0
		})
		plant(func(r []float32) {
			for i := range r {
				switch i % 3 {
				case 0:
					r[i] = negZero
				case 1:
					r[i] = 0
				default:
					r[i] = -r[i] * r[i]
				}
			}
		})
		plant(func(r []float32) {
			r[rng.Intn(n)] = posInf32
			r[rng.Intn(n)] = negInf32
			r[rng.Intn(n)] = negZero
		})
		plant(func(r []float32) {
			for i := range r {
				r[i] = negInf32
			}
			r[n-1] = negZero
		})
	}
	// Rows that run MaxRow's four-accumulator loop and its 8-wide remainder
	// (120 = 8 + 3·32 + 2·8), with the maximum at q and a NaN at a later p in
	// the same lane: a NaN the kernel failed to flag turns its accumulator
	// lane to NaN, and the next VMAXPS into that lane drops the maximum.
	const long = 120
	for q := 8; q < long; q++ {
		for p := q + 8; p < long; p += 8 {
			r := make([]float32, long)
			for i := range r {
				r[i] = float32(rng.NormFloat64())
			}
			r[q] = 100
			r[p] = nan32
			rows = append(rows, r)
		}
	}
	return rows
}

func sameBits32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// TestMaxRowMatchesScalar checks the vector row max against the scalar scan
// it replaced, bit for bit, including which zero wins and every NaN position.
func TestMaxRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, r := range specialRows(rng) {
		want := r[0]
		for _, v := range r[1:] {
			if v > want {
				want = v
			}
		}
		if got := MaxRow(r); !sameBits32(got, want) {
			t.Fatalf("MaxRow(%v) = %v (%#x), want %v (%#x)", r, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

// TestScaleRowMatchesScalar checks the vector normalise against `dst[i] *= s`.
func TestScaleRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, r := range specialRows(rng) {
		for _, s := range []float64{1 / 3.7, 0, math.Copysign(0, -1), math.Inf(1), float64(nan32), 1e308} {
			got := make([]float64, len(r))
			want := make([]float64, len(r))
			for i, v := range r {
				got[i] = float64(v)
				want[i] = float64(v) * s
			}
			ScaleRow(got, s)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("ScaleRow(%v, %g)[%d] = %v, want %v", r, s, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPositivePartMatchesScalar checks the vector fold clamp against
// `if v > 0 { dst = v } else { dst = 0 }`: NaN and -0 must come out +0.
func TestPositivePartMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, r := range specialRows(rng) {
		got := make([]float32, len(r))
		for i := range got {
			got[i] = nan32 // every element must be overwritten
		}
		PositivePart(got, r)
		for i, v := range r {
			want := float32(0)
			if v > 0 {
				want = v
			}
			if !sameBits32(got[i], want) {
				t.Fatalf("PositivePart(%v)[%d] = %v (%#x), want %v", r, i, got[i], math.Float32bits(got[i]), want)
			}
		}
	}
	// In place, as the ReLU layer calls it.
	r := []float32{negZero, nan32, -2, 3, 0, posInf32, negInf32, 5, nan32, negZero}
	PositivePart(r, r)
	for i, want := range []float32{0, 0, 0, 3, 0, posInf32, 0, 5, 0, 0} {
		if !sameBits32(r[i], want) {
			t.Fatalf("in-place PositivePart[%d] = %v (%#x), want %v", i, r[i], math.Float32bits(r[i]), want)
		}
	}
}

// TestRowPassesScalarWithoutAccel checks that SetAccel(false) sends every row
// pass through its scalar loop (identical results by the tests above; here
// the kernels must simply not run, so the row may be any length).
func TestRowPassesScalarWithoutAccel(t *testing.T) {
	prev := SetAccel(false)
	defer SetAccel(prev)
	r := []float32{1, negZero, 3, nan32, -4, 0, 2, 7, 9, -1, 0.5}
	if got := MaxRow(r); got != 9 {
		t.Fatalf("MaxRow = %v, want 9", got)
	}
	d := []float64{1, 2, 3, 4, 5}
	ScaleRow(d, 2)
	for i, want := range []float64{2, 4, 6, 8, 10} {
		if d[i] != want {
			t.Fatalf("ScaleRow[%d] = %v, want %v", i, d[i], want)
		}
	}
	out := make([]float32, len(r))
	PositivePart(out, r)
	if !sameBits32(out[1], 0) || !sameBits32(out[3], 0) || out[7] != 7 {
		t.Fatalf("PositivePart = %v", out)
	}
}
