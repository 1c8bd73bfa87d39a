package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the approximate number of multiply-adds below which a
// product runs single-threaded; goroutine fan-out costs more than it saves on
// tiny matrices.
const parallelThreshold = 1 << 16

// ParallelFor splits [0, n) into up to GOMAXPROCS contiguous chunks and runs
// fn on each chunk concurrently. fn receives half-open index ranges. It is
// exported so higher layers (training, workload execution) can reuse the same
// fan-out.
func ParallelFor(n int, fn func(start, end int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(start, end)
	}
	wg.Wait()
}

// packedMinWork is the multiply-add count above which packing B pays for
// itself; below it the pack pass dominates the product.
const packedMinWork = 1 << 15

// packedDensityCutoff is the nonzero fraction of A above which the dense
// packed kernel beats the sparse-skipping i-k-j kernel. One-hot encoded
// batches sit far below it; hidden activations sit above.
const packedDensityCutoff = 0.25

// simdDensityCutoff replaces packedDensityCutoff when the FMA micro-kernel is
// active: the vector kernel moves ~4× more elements per cycle than the scalar
// axpy, so skipping zeros only pays below a much smaller density. ReLU
// activations (~50% zero) land between the two cutoffs — naive for the scalar
// kernel, packed for the vector one.
const simdDensityCutoff = 1.0 / 16

// accelEnabled gates the kernel acceleration added with the training fast
// path: the FMA micro-kernels, the lowered density cutoff, and the packed
// MatMulTransA route. It exists so benchmarks can measure the legacy
// (pre-fast-path) kernel configuration in the same binary; it is not meant to
// be toggled while kernels are running.
var accelEnabled = true

// SetAccel enables or disables the accelerated kernel configuration and
// returns the previous setting. Only benchmarks measuring the sequential
// baseline should turn it off.
func SetAccel(on bool) bool {
	prev := accelEnabled
	accelEnabled = on
	return prev
}

// KernelPath names the kernels packed products, the softmax row passes and
// ExpShift run on: "avx512" (16- and 32-wide ZMM panels, with the AVX2
// kernels for products 8 or fewer columns wide; the exp-sum, the normalise
// and ExpShift on ZMM, the row max on AVX2), "avx2", or "portable"
// (SetAccel(false), or no AVX2+FMA). Benchmarks record it next to their
// numbers; estimates and trained weights are the same bits on the two vector
// paths.
func KernelPath() string {
	switch {
	case !useFMA || !accelEnabled:
		return "portable"
	case useAVX512:
		return "avx512"
	}
	return "avx2"
}

// densityCutoff is the dispatch threshold matching the active micro-kernel.
func densityCutoff() float64 {
	if useFMA && accelEnabled {
		return simdDensityCutoff
	}
	return packedDensityCutoff
}

// MatMul computes C = A·B, or C += A·B when accumulate is true. A is m×k,
// B is k×n, C must be m×n. Large dense products are routed through the
// packed register-tiled kernel (packed.go); sparse or tiny ones fall back to
// the i-k-j ordering, which streams B and C row-wise and skips zero elements
// of A (one-hot inputs make A very sparse).
func MatMul(c, a, b *Matrix, accumulate bool) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%d×%d)·(%d×%d)→(%d×%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if a.Rows >= packMR && a.Rows*a.Cols*b.Cols >= packedMinWork && density(a) >= densityCutoff() {
		pb := packPool.Get().(*PackedB)
		pb.Pack(b)
		MatMulPacked(c, a, pb, nil, false, accumulate)
		packPool.Put(pb)
		return
	}
	body := func(start, end int) {
		for i := start; i < end; i++ {
			ci := c.Data[i*c.Cols : (i+1)*c.Cols]
			if !accumulate {
				for j := range ci {
					ci[j] = 0
				}
			}
			ai := a.Data[i*a.Cols : (i+1)*a.Cols]
			for k, aik := range ai {
				if aik == 0 {
					continue // one-hot inputs make A very sparse
				}
				bk := b.Data[k*b.Cols : (k+1)*b.Cols]
				axpy(aik, bk, ci)
			}
		}
	}
	if a.Rows*a.Cols*b.Cols < parallelThreshold {
		body(0, a.Rows)
		return
	}
	ParallelFor(a.Rows, body)
}

// MatMulTransB computes C = A·Bᵀ, or C += A·Bᵀ when accumulate is true.
// A is m×k, B is n×k, C must be m×n. Used for tied-embedding decoding
// (H·Eᵀ, §4.2 "embedding reuse") and for input gradients (dX = dY·Wᵀ when W
// is stored out×in... W here stored as in×out, so dX = dY·Wᵀ uses this).
func MatMulTransB(c, a, b *Matrix, accumulate bool) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch (%d×%d)·(%d×%d)ᵀ→(%d×%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	// The naive path cannot skip zeros (it computes full dot products), so
	// any large product benefits from the packed kernel; packing Bᵀ costs one
	// strided read of B, amortized over the row count of A.
	if a.Rows >= 2*packMR && a.Rows*a.Cols*b.Rows >= packedMinWork {
		pb := packPool.Get().(*PackedB)
		pb.PackTrans(b)
		MatMulPacked(c, a, pb, nil, false, accumulate)
		packPool.Put(pb)
		return
	}
	body := func(start, end int) {
		for i := start; i < end; i++ {
			ai := a.Data[i*a.Cols : (i+1)*a.Cols]
			ci := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j := 0; j < b.Rows; j++ {
				bj := b.Data[j*b.Cols : (j+1)*b.Cols]
				s := dot(ai, bj)
				if accumulate {
					ci[j] += s
				} else {
					ci[j] = s
				}
			}
		}
	}
	if a.Rows*a.Cols*b.Rows < parallelThreshold {
		body(0, a.Rows)
		return
	}
	ParallelFor(a.Rows, body)
}

// MatMulTransA computes C = Aᵀ·B, or C += Aᵀ·B when accumulate is true.
// A is m×k, B is m×n, C must be k×n. This is the weight-gradient product
// (dW = Xᵀ·dY). Dense products route through the packed register-tiled
// kernel, which needs one operand transposed: A when it is no wider than B,
// otherwise B, for Cᵀ = Bᵀ·A (transAWide). Sparse ones — the first layer's
// one-hot input against its output gradient — keep the zero-skipping kernel,
// parallelised over row-bands of C so workers never write the same cache
// line.
func MatMulTransA(c, a, b *Matrix, accumulate bool) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch (%d×%d)ᵀ·(%d×%d)→(%d×%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if accelEnabled && a.Cols >= packMR && a.Rows*a.Cols*b.Cols >= packedMinWork && density(a) >= densityCutoff() {
		if a.Cols > b.Cols {
			transAWide(c, a, b, accumulate)
			return
		}
		at := transPool.Get().(*Matrix)
		transposeInto(at, a)
		pb := packPool.Get().(*PackedB)
		pb.Pack(b)
		MatMulPacked(c, at, pb, nil, false, accumulate)
		packPool.Put(pb)
		transPool.Put(at)
		return
	}
	body := func(start, end int) {
		if !accumulate {
			for k := start; k < end; k++ {
				ck := c.Data[k*c.Cols : (k+1)*c.Cols]
				for j := range ck {
					ck[j] = 0
				}
			}
		}
		for i := 0; i < a.Rows; i++ {
			ai := a.Data[i*a.Cols : (i+1)*a.Cols]
			bi := b.Data[i*b.Cols : (i+1)*b.Cols]
			for k := start; k < end; k++ {
				if aik := ai[k]; aik != 0 {
					axpy(aik, bi, c.Data[k*c.Cols:(k+1)*c.Cols])
				}
			}
		}
	}
	if a.Rows*a.Cols*b.Cols < parallelThreshold {
		body(0, a.Cols)
		return
	}
	ParallelFor(a.Cols, body)
}

// transPool recycles the transposed operands and product blocks of
// MatMulTransA's packed routes.
var transPool = sync.Pool{New: func() any { return new(Matrix) }}

// transAChunk is how many of A's columns transAWide packs and multiplies at
// a time: a multiple of every panel width, and small enough that the packed
// chunk (m×transAChunk floats) stays in cache across Bᵀ's row bands.
const transAChunk = 128

// transAWide computes C = Aᵀ·B (or C += Aᵀ·B) for an A wider than B as
// Cᵀ = Bᵀ·A: Bᵀ is the narrow transpose, A is packed a column chunk at a
// time, and each chunk's product block is added back into C transposed. The
// transposed product has the bits of the untransposed one: the packed
// kernels compute every element as one k-ordered FMA chain from +0 over
// i = 0..m-1 (a plain multiply-add chain on the portable path), the chain's
// terms A[i][kk]·B[i][j] are the same products either way round, and the
// add into C is the same IEEE sum; only NaN payloads may differ. Chunks
// write disjoint rows of C, so they run in parallel.
func transAWide(c, a, b *Matrix, accumulate bool) {
	bt := transPool.Get().(*Matrix)
	transposeInto(bt, b)
	chunks := (a.Cols + transAChunk - 1) / transAChunk
	body := func(start, end int) {
		pb := packPool.Get().(*PackedB)
		blk := transPool.Get().(*Matrix)
		for ch := start; ch < end; ch++ {
			k0 := ch * transAChunk
			k1 := min(k0+transAChunk, a.Cols)
			w := k1 - k0
			pb.PackRange(a, 0, a.Rows, k0, k1)
			blk.Rows, blk.Cols = bt.Rows, w
			if cap(blk.Data) < bt.Rows*w {
				blk.Data = make([]float32, bt.Rows*w)
			}
			blk.Data = blk.Data[:bt.Rows*w]
			packedBody(blk, bt, bt.Cols, pb, nil, false, false, 0, 0, bt.Rows)
			for kk := 0; kk < w; kk++ {
				ck := c.Data[(k0+kk)*c.Cols : (k0+kk+1)*c.Cols]
				for j := range ck {
					if accumulate {
						ck[j] += blk.Data[j*w+kk]
					} else {
						ck[j] = blk.Data[j*w+kk]
					}
				}
			}
		}
		transPool.Put(blk)
		packPool.Put(pb)
	}
	if a.Rows*a.Cols*b.Cols < parallelThreshold {
		body(0, chunks)
	} else {
		ParallelFor(chunks, body)
	}
	transPool.Put(bt)
}

// transposeInto writes srcᵀ into dst, resizing dst's storage as needed while
// reusing its capacity. It streams src row-major (sequential reads) and
// scatters down dst's columns, which is the cheaper direction for the
// row-major layout when src has many more rows than columns.
func transposeInto(dst, src *Matrix) {
	dst.Rows, dst.Cols = src.Cols, src.Rows
	need := src.Rows * src.Cols
	if cap(dst.Data) < need {
		dst.Data = make([]float32, need)
	}
	dst.Data = dst.Data[:need]
	for i := 0; i < src.Rows; i++ {
		row := src.Data[i*src.Cols : (i+1)*src.Cols]
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// axpy computes y += a*x for equal-length slices. Long vectors go through the
// FMA kernel when available; the four-way unroll below gives the compiler
// independent chains to schedule otherwise.
func axpy(a float32, x, y []float32) {
	n := len(x)
	_ = y[n-1]
	if useFMA && accelEnabled && n >= 8 {
		axpyFMA(a, &x[0], &y[0], n)
		return
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += a * x[i]
	}
}

// dot returns the inner product of equal-length slices.
func dot(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// Dot exposes the unrolled inner product for other packages.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 0
	}
	return dot(x, y)
}

// Axpy exposes y += a*x for other packages.
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return
	}
	axpy(a, x, y)
}
