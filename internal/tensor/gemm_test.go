package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMatMulTransAPackedMatchesNaive drives shapes large and dense enough to
// take the packed register-tiled route (transpose + Pack + micro-kernel) and
// checks them against the float64 reference, including accumulate mode.
func TestMatMulTransAPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{512, 256, 128}, {512, 1900, 64}, {100, 37, 129}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(rng, m, k), randMat(rng, m, n)

		c := New(k, n)
		MatMulTransA(c, a, b, false)
		matClose(t, c, naiveMatMul(a, b, true, false), 2e-2)

		acc := New(k, n)
		acc.Fill(3)
		MatMulTransA(acc, a, b, true)
		want := naiveMatMul(a, b, true, false)
		for i := range want.Data {
			want.Data[i] += 3
		}
		matClose(t, acc, want, 2e-2)
	}
}

// transAReference is MatMulTransA's packed route before transAWide: A
// transposed, then the packed product against B.
func transAReference(c, a, b *Matrix, accumulate bool) {
	at := new(Matrix)
	transposeInto(at, a)
	pb := new(PackedB)
	pb.Pack(b)
	MatMulPacked(c, at, pb, nil, false, accumulate)
}

// TestMatMulTransAWideMatchesTransposedA checks Cᵀ = Bᵀ·A against the
// transpose-A product bit for bit: A wider and narrower than B, remainder
// rows (m, and B's width as the transposed product's rows) and remainder
// columns (A's width past whole chunks and panels), accumulate on and off,
// every panel layout this CPU runs and the portable loop that non-amd64
// builds run (reached here through SetAccel(false)). transAWide is
// called directly on every shape, and MatMulTransA wherever its packed route
// applies (on a wide A that route is transAWide).
func TestMatMulTransAWideMatchesTransposedA(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := [][3]int{ // m, k (A's width), n (B's width)
		{8, 9, 8}, {9, 17, 5}, {13, 130, 1}, {37, 300, 17}, {64, 2101, 64},
		{256, 129, 128}, {200, 257, 33}, {40, 8, 64}, {33, 64, 100}, {512, 128, 256},
	}
	check := func(what string, m, k, n int) {
		a, b := randMat(rng, m, k), randMat(rng, m, n)
		for _, acc := range []bool{false, true} {
			c0 := randMat(rng, k, n)
			want := c0.Clone()
			transAReference(want, a, b, acc)
			got := c0.Clone()
			transAWide(got, a, b, acc)
			name := fmt.Sprintf("%s %dx%d·%dx%d acc=%v", what, m, k, m, n, acc)
			requireSameBits(t, name+" transAWide", got, want)
			if accelEnabled && k >= packMR && m*k*n >= packedMinWork {
				got = c0.Clone()
				MatMulTransA(got, a, b, acc)
				requireSameBits(t, name+" MatMulTransA", got, want)
			}
		}
	}
	for _, wide := range panelWidths() {
		withAVX512(wide, func() {
			for _, sh := range shapes {
				check(fmt.Sprintf("avx512=%v", wide), sh[0], sh[1], sh[2])
			}
		})
	}
	prev := SetAccel(false)
	defer SetAccel(prev)
	for _, sh := range shapes {
		check("portable", sh[0], sh[1], sh[2])
	}
}

// TestMatMulTransADeterministic: the dispatch (sampled density) and kernels
// must be pure functions of the operands — the sharded-training determinism
// contract rests on this.
func TestMatMulTransADeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b := randMat(rng, 512, 256), randMat(rng, 512, 128)
	c1, c2 := New(256, 128), New(256, 128)
	MatMulTransA(c1, a, b, false)
	MatMulTransA(c2, a, b, false)
	for i := range c1.Data {
		if c1.Data[i] != c2.Data[i] {
			t.Fatalf("element %d differs across runs: %v vs %v", i, c1.Data[i], c2.Data[i])
		}
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := randMat(rng, 7, 13)
	dst := new(Matrix)
	transposeInto(dst, src)
	if dst.Rows != 13 || dst.Cols != 7 {
		t.Fatalf("transpose shape %d×%d", dst.Rows, dst.Cols)
	}
	for i := 0; i < src.Rows; i++ {
		for j := 0; j < src.Cols; j++ {
			if dst.At(j, i) != src.At(i, j) {
				t.Fatalf("(%d,%d) mismatch", i, j)
			}
		}
	}
	// Reuse with a smaller shape must not read stale capacity.
	small := randMat(rng, 2, 3)
	transposeInto(dst, small)
	if dst.Rows != 3 || dst.Cols != 2 || len(dst.Data) != 6 {
		t.Fatalf("reused transpose shape %d×%d len %d", dst.Rows, dst.Cols, len(dst.Data))
	}
}

// TestDensitySampled: the estimate must be deterministic, exact on small
// matrices, and must not be fooled by column-aligned structured sparsity when
// the raw stride would divide the row length.
func TestDensitySampled(t *testing.T) {
	small := FromSlice(2, 3, []float32{1, 0, 0, 0, 2, 0})
	if d := density(small); d != float64(2)/6 {
		t.Fatalf("small density = %v, want %v", d, float64(2)/6)
	}

	// 4096×64: n/densitySamples = 128, a multiple of Cols — without the
	// stride nudge every probe would land in the same two columns. Nonzeros
	// live only in column 0, so the true density is 1/64.
	structured := New(4096, 64)
	for r := 0; r < structured.Rows; r++ {
		structured.Set(r, 0, 1)
	}
	d := density(structured)
	if d >= packedDensityCutoff {
		t.Fatalf("structured-sparse density = %v, want < %v", d, packedDensityCutoff)
	}
	if d2 := density(structured); d2 != d {
		t.Fatalf("density not deterministic: %v vs %v", d, d2)
	}

	dense := New(4096, 64)
	dense.Fill(1)
	if d := density(dense); d != 1 {
		t.Fatalf("dense density = %v, want 1", d)
	}
}

// TestAxpyMatchesScalar exercises the FMA axpy against the plain loop across
// vector lengths that cover the 8-wide body and every tail size.
func TestAxpyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 7, 8, 9, 15, 16, 63, 64, 100, 257} {
		x := make([]float32, n)
		y := make([]float32, n)
		want := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
			y[i] = float32(rng.NormFloat64())
			want[i] = y[i]
		}
		const alpha = float32(0.37)
		for i := range want {
			want[i] += alpha * x[i]
		}
		Axpy(alpha, x, y)
		for i := range want {
			if diff := float64(want[i] - y[i]); diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("n=%d: y[%d] = %v, want %v", n, i, y[i], want[i])
			}
		}
	}
}

// TestSetAccelLegacyDispatchAgrees: with acceleration off, products must
// still be correct (portable Go tile, conservative cutoffs), and SetAccel
// must restore the previous setting.
func TestSetAccelLegacyDispatchAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a, b := randMat(rng, 64, 96), randMat(rng, 96, 80)
	fast := New(64, 80)
	MatMul(fast, a, b, false)

	prev := SetAccel(false)
	if !prev {
		t.Fatal("acceleration should default on")
	}
	slow := New(64, 80)
	MatMul(slow, a, b, false)
	ta := New(96, 80)
	MatMulTransA(ta, randMat(rng, 4, 96), randMat(rng, 4, 80), false)
	if on := SetAccel(true); on {
		t.Fatal("SetAccel(false) did not stick")
	}

	matClose(t, slow, fast, 1e-3)
	want := naiveMatMul(a, b, false, false)
	matClose(t, slow, want, 1e-3)
}
