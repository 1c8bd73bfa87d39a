package tensor

import (
	"math/rand"
	"testing"
)

func benchMatPair(m, k, n int) (*Matrix, *Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	a, b := New(m, k), New(k, n)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	return New(m, n), a, b
}

func BenchmarkMatMul128(b *testing.B) {
	c, x, y := benchMatPair(128, 128, 128)
	b.SetBytes(int64(128 * 128 * 128 * 4))
	for i := 0; i < b.N; i++ {
		MatMul(c, x, y, false)
	}
}

func BenchmarkMatMul512x256(b *testing.B) {
	c, x, y := benchMatPair(512, 256, 512)
	for i := 0; i < b.N; i++ {
		MatMul(c, x, y, false)
	}
}

func BenchmarkMatMulOneHotSparse(b *testing.B) {
	// One-hot-ish input: MatMul skips zero entries; measure the fast path.
	rng := rand.New(rand.NewSource(2))
	a := New(256, 530)
	for r := 0; r < 256; r++ {
		for j := 0; j < 11; j++ {
			a.Set(r, rng.Intn(530), 1)
		}
	}
	w := New(530, 256)
	w.Randn(rng, 1)
	c := New(256, 256)
	for i := 0; i < b.N; i++ {
		MatMul(c, a, w, false)
	}
}

func BenchmarkMatMulTransA(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(512, 256)
	x.Randn(rng, 1)
	dy := New(512, 128)
	dy.Randn(rng, 1)
	dw := New(256, 128)
	for i := 0; i < b.N; i++ {
		MatMulTransA(dw, x, dy, false)
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	h := New(1000, 64)
	h.Randn(rng, 1)
	e := New(1900, 64) // embedding-reuse decode shape
	e.Randn(rng, 1)
	lg := New(1000, 1900)
	for i := 0; i < b.N; i++ {
		MatMulTransB(lg, h, e, false)
	}
}

func BenchmarkMatMulTransAAccumulate(b *testing.B) {
	// The weight-gradient shape of a 256-wide hidden layer over a 512-row
	// batch, accumulate mode — the exact call Linear.Backward makes. Dense A
	// routes through the packed kernel.
	rng := rand.New(rand.NewSource(5))
	x := New(512, 256)
	x.Randn(rng, 1)
	dy := New(512, 256)
	dy.Randn(rng, 1)
	dw := New(256, 256)
	for i := 0; i < b.N; i++ {
		MatMulTransA(dw, x, dy, true)
	}
}

func BenchmarkMatMulTransAOneHot(b *testing.B) {
	// First-layer weight gradient: A is the one-hot/embedded encoding, very
	// sparse, so dispatch must keep the zero-skipping kernel.
	rng := rand.New(rand.NewSource(6))
	x := New(512, 530)
	for r := 0; r < 512; r++ {
		for j := 0; j < 11; j++ {
			x.Set(r, rng.Intn(530), 1)
		}
	}
	dy := New(512, 256)
	dy.Randn(rng, 1)
	dw := New(530, 256)
	for i := 0; i < b.N; i++ {
		MatMulTransA(dw, x, dy, true)
	}
}

func BenchmarkMatMulTransAEmbedGrad(b *testing.B) {
	// dE += dLogitsᵀ·Block for a 1900-value embedded column: the dominant
	// gradient product of batched embedding-reuse decoding.
	rng := rand.New(rand.NewSource(7))
	dlg := New(512, 1900)
	dlg.Randn(rng, 1)
	blk := New(512, 64)
	blk.Randn(rng, 1)
	de := New(1900, 64)
	for i := 0; i < b.N; i++ {
		MatMulTransA(de, dlg, blk, true)
	}
}

func BenchmarkDensity(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a := New(512, 722)
	a.Randn(rng, 1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += density(a)
	}
	_ = sink
}

func BenchmarkDot(b *testing.B) {
	x := make([]float32, 1024)
	y := make([]float32, 1024)
	for i := range x {
		x[i], y[i] = float32(i), float32(1024-i)
	}
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}

func BenchmarkAxpy(b *testing.B) {
	x := make([]float32, 1024)
	y := make([]float32, 1024)
	for i := range x {
		x[i] = float32(i)
	}
	for i := 0; i < b.N; i++ {
		Axpy(0.001, x, y)
	}
}

// BenchmarkMatMulPackedDecode is one serial decode tile of DMV's widest
// column against its cached pack: 256 sample rows of a 64-wide head output
// times the transposed 2101-code embedding, the product that dominates the
// fused walk. It reports multiply-adds per second.
func BenchmarkMatMulPackedDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	h := New(256, 64)
	h.Randn(rng, 1)
	e := New(2101, 64)
	e.Randn(rng, 1)
	var pb PackedB
	pb.PackTrans(e)
	lg := New(256, 2101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packedBody(lg, h, h.Cols, &pb, nil, false, false, 0, 0, h.Rows)
	}
	b.ReportMetric(float64(b.N)*256*64*2101/b.Elapsed().Seconds()/1e9, "Gmadd/s")
}

// benchSoftmaxPaths runs f as sub-benchmarks on the AVX2 row kernels and,
// where the CPU has them, the AVX-512 ones.
func benchSoftmaxPaths(b *testing.B, f func(b *testing.B)) {
	b.Run("avx2", func(b *testing.B) { withAVX512(false, func() { f(b) }) })
	if useAVX512 {
		b.Run("avx512", func(b *testing.B) { withAVX512(true, func() { f(b) }) })
	}
}

// BenchmarkExpRow is the softmax exp-sum over one valid_date row: 2101
// logits, of which the kernel takes the 2096 that fill whole vectors.
func BenchmarkExpRow(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	src := make([]float32, 2101)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 8)
	}
	mx := MaxRow(src)
	dst := make([]float64, len(src))
	benchSoftmaxPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpRow(dst, src, mx)
		}
	})
}

// BenchmarkScaleRow is the softmax normalise of one 2101-code row.
func BenchmarkScaleRow(b *testing.B) {
	dst := make([]float64, 2101)
	for i := range dst {
		dst[i] = float64(i)
	}
	benchSoftmaxPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScaleRow(dst, 1)
		}
	})
}

// BenchmarkExpShift is the training loss's exp pass over one valid_date row
// (2101 logits): on the scalar math.Exp loop that SetAccel(false) runs, and
// on each vector kernel.
func BenchmarkExpShift(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	src := make([]float32, 2101)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 8)
	}
	mx := float64(MaxRow(src))
	dst := make([]float64, len(src))
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpShift(dst, src, mx)
		}
	}
	b.Run("math.Exp", func(b *testing.B) {
		prev := SetAccel(false)
		defer SetAccel(prev)
		run(b)
	})
	benchSoftmaxPaths(b, run)
}
