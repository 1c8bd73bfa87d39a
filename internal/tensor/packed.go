package tensor

import (
	"fmt"
	"sync"
)

// Packed, register-tiled GEMM. The naive i-k-j product in gemm.go streams B
// row by row and touches C once per (k, j) pair; profitable only when A is
// very sparse (one-hot encodings). For the dense products that dominate
// inference — hidden-layer activations times 128×128 weight blocks — the
// kernels below first pack B into contiguous column panels of width packNR,
// then drive a packMR×packNR micro-kernel whose accumulators live in
// registers, so each element of C is written exactly once and each panel of B
// is read sequentially for every row band of A. An optional epilogue fuses
// the bias add and ReLU into the same sweep, turning the three memory passes
// of Linear→bias→ReLU into one.

const (
	packMR = 8 // rows of A per micro-kernel invocation
	packNR = 8 // columns of B per panel: one YMM register on amd64
)

// PackedB is matrix B repacked for the micro-kernel: column panels of width
// packNR, each panel holding its K rows contiguously, zero-padded on the last
// panel. Packing costs O(K·N) and is amortized over the O(M·K·N) product.
type PackedB struct {
	K, N int
	data []float32
}

// panels returns the number of packNR-wide column panels.
func (pb *PackedB) panels() int { return (pb.N + packNR - 1) / packNR }

// reserve sizes the backing array for a K×N source, reusing capacity.
func (pb *PackedB) reserve(k, n int) {
	pb.K, pb.N = k, n
	need := pb.panels() * k * packNR
	if cap(pb.data) < need {
		pb.data = make([]float32, need)
	}
	pb.data = pb.data[:need]
}

// Pack fills pb from B (K×N, row-major), reusing pb's storage when possible.
func (pb *PackedB) Pack(b *Matrix) { pb.PackCols(b, 0) }

// PackCols fills pb from the column suffix B[:, j0:], so a product against pb
// yields only output columns j0 and up. This is the delta-forward primitive:
// degree-sorted masked layers change only a suffix of their units per
// sampling step, and packing just that suffix keeps the per-step GEMM
// proportional to the changed width.
func (pb *PackedB) PackCols(b *Matrix, j0 int) { pb.PackRange(b, 0, b.Rows, j0, b.Cols) }

// PackRange fills pb from the sub-block B[i0:i1, j0:j1). A product against the
// result consumes a K = i1-i0 operand and yields N = j1-j0 output columns.
// Row windows pack the K-prefix of a masked weight matrix (a head block whose
// mask admits only low-degree hidden units); column windows pack one
// degree band of a hidden layer. Both are packed once and cached by the model,
// which is what makes band-granular delta-forward refreshes cheap at any
// batch height.
func (pb *PackedB) PackRange(b *Matrix, i0, i1, j0, j1 int) {
	if i0 < 0 || i1 < i0 || i1 > b.Rows || j0 < 0 || j1 < j0 || j1 > b.Cols {
		panic(fmt.Sprintf("tensor: PackRange window [%d:%d,%d:%d) of %d×%d", i0, i1, j0, j1, b.Rows, b.Cols))
	}
	pb.reserve(i1-i0, j1-j0)
	k, stride, n := pb.K, b.Cols, pb.N
	for p := 0; p < pb.panels(); p++ {
		pj := p * packNR
		nj := n - pj
		if nj > packNR {
			nj = packNR
		}
		dst := pb.data[p*k*packNR:]
		for r := 0; r < k; r++ {
			src := b.Data[(i0+r)*stride+j0+pj:]
			d := dst[r*packNR : r*packNR+packNR]
			for j := 0; j < nj; j++ {
				d[j] = src[j]
			}
			for j := nj; j < packNR; j++ {
				d[j] = 0
			}
		}
	}
}

// PackTrans fills pb with Bᵀ: the logical operand is the transpose of the
// stored n×k matrix b, so panel column j is row j0+j of b. This is the decode
// and dX=dY·Wᵀ layout, replacing MatMulTransB's per-element dot products.
func (pb *PackedB) PackTrans(b *Matrix) {
	pb.reserve(b.Cols, b.Rows)
	k, n := b.Cols, b.Rows // logical dims of Bᵀ
	for p := 0; p < pb.panels(); p++ {
		j0 := p * packNR
		nj := n - j0
		if nj > packNR {
			nj = packNR
		}
		dst := pb.data[p*k*packNR:]
		for j := 0; j < nj; j++ {
			src := b.Data[(j0+j)*k : (j0+j+1)*k]
			for r := 0; r < k; r++ {
				dst[r*packNR+j] = src[r]
			}
		}
		if nj < packNR {
			for r := 0; r < k; r++ {
				for j := nj; j < packNR; j++ {
					dst[r*packNR+j] = 0
				}
			}
		}
	}
}

// packPool recycles pack buffers for the transient packings done inside
// MatMul/MatMulTransB dispatch, keeping the fast path allocation-free.
var packPool = sync.Pool{New: func() any { return new(PackedB) }}

// MatMulPacked computes C = A·B from a pre-packed B, with an optional fused
// epilogue: when bias is non-nil it is broadcast-added to every row, and when
// relu is true negative results are clamped to zero in the same sweep.
// accumulate adds into C instead of overwriting; it cannot be combined with
// the epilogue (no caller needs that, and the combination is ambiguous).
func MatMulPacked(c, a *Matrix, pb *PackedB, bias []float32, relu, accumulate bool) {
	if c.Cols != pb.N {
		panic(fmt.Sprintf("tensor: MatMulPacked C has %d columns, packed B has %d", c.Cols, pb.N))
	}
	matMulPackedAt(c, a, pb, bias, relu, accumulate, 0)
}

// matMulPackedAt writes the product into the column window C[:, cOff:cOff+pb.N],
// leaving the columns outside the window untouched. bias, when present, covers
// just the window (pb.N entries).
func matMulPackedAt(c, a *Matrix, pb *PackedB, bias []float32, relu, accumulate bool, cOff int) {
	if a.Cols != pb.K || c.Rows != a.Rows || cOff < 0 || cOff+pb.N > c.Cols {
		panic(fmt.Sprintf("tensor: MatMulPacked shape mismatch (%d×%d)·(%d×%d)→(%d×%d)+%d",
			a.Rows, a.Cols, pb.K, pb.N, c.Rows, c.Cols, cOff))
	}
	if accumulate && (bias != nil || relu) {
		panic("tensor: MatMulPacked cannot combine accumulate with a bias/ReLU epilogue")
	}
	if bias != nil && len(bias) != pb.N {
		panic(fmt.Sprintf("tensor: MatMulPacked bias length %d for %d columns", len(bias), pb.N))
	}
	// The serial branch calls packedBody directly: creating the closure first
	// would heap-allocate it even when ParallelFor is never reached (it
	// escapes into the goroutine path), and the block-sampling walk relies on
	// sub-threshold products being allocation-free.
	if a.Rows*a.Cols*pb.N < parallelThreshold {
		packedBody(c, a, a.Cols, pb, bias, relu, accumulate, cOff, 0, a.Rows)
		return
	}
	ParallelFor(a.Rows, func(start, end int) {
		packedBody(c, a, a.Cols, pb, bias, relu, accumulate, cOff, start, end)
	})
}

// MatMulPackedWindow exposes the column-window product C[:, cOff:cOff+pb.N] =
// A·B (or += with accumulate) against a caller-held packed operand. It is the
// cached-pack counterpart of LinearReLUCols: the model packs a weight band
// once and replays it every sampling step without the per-call pack pass.
func MatMulPackedWindow(c, a *Matrix, pb *PackedB, bias []float32, relu, accumulate bool, cOff int) {
	matMulPackedAt(c, a, pb, bias, relu, accumulate, cOff)
}

// MatMulPackedPrefix computes C[:, cOff:cOff+pb.N] = A[:, :pb.K]·B from a
// pre-packed B whose K dimension is a prefix of A's columns (pb.K ≤ A.Cols).
// Masked output heads read only the hidden units whose degree admits their
// column — a prefix under degree sorting — so packing just those pb.K weight
// rows and walking A with its full row stride skips the provably-zero tail of
// the dot product while producing bit-identical sums (the skipped terms are
// exact zeros appended after the same-order prefix accumulation).
func MatMulPackedPrefix(c, a *Matrix, pb *PackedB, bias []float32, relu, accumulate bool, cOff int) {
	if a.Cols < pb.K || c.Rows != a.Rows || cOff < 0 || cOff+pb.N > c.Cols {
		panic(fmt.Sprintf("tensor: MatMulPackedPrefix shape mismatch (%d×%d)·(%d×%d)→(%d×%d)+%d",
			a.Rows, a.Cols, pb.K, pb.N, c.Rows, c.Cols, cOff))
	}
	if accumulate && (bias != nil || relu) {
		panic("tensor: MatMulPackedPrefix cannot combine accumulate with a bias/ReLU epilogue")
	}
	if bias != nil && len(bias) != pb.N {
		panic(fmt.Sprintf("tensor: MatMulPackedPrefix bias length %d for %d columns", len(bias), pb.N))
	}
	if pb.K == 0 {
		// Degenerate prefix: the product contributes nothing; only the
		// epilogue (bias broadcast, ReLU clamp, or nothing for accumulate)
		// remains.
		for i := 0; i < c.Rows; i++ {
			dst := c.Data[i*c.Cols+cOff : i*c.Cols+cOff+pb.N]
			switch {
			case accumulate:
			case bias != nil && relu:
				for j := range dst {
					v := bias[j]
					if v < 0 {
						v = 0
					}
					dst[j] = v
				}
			case bias != nil:
				copy(dst, bias)
			case relu:
				for j := range dst {
					dst[j] = 0
				}
			default:
				for j := range dst {
					dst[j] = 0
				}
			}
		}
		return
	}
	// Serial branch first, closure only on the parallel path — same
	// allocation-free contract as matMulPackedAt.
	if a.Rows*pb.K*pb.N < parallelThreshold {
		packedBody(c, a, a.Cols, pb, bias, relu, accumulate, cOff, 0, a.Rows)
		return
	}
	ParallelFor(a.Rows, func(start, end int) {
		packedBody(c, a, a.Cols, pb, bias, relu, accumulate, cOff, start, end)
	})
}

// Epilogue modes of fmaStore8x8, one per storeTile case.
const (
	tileStore = iota
	tileAccumulate
	tileBias
	tileBiasReLU
	tileReLU
)

// epilogueMode names the storeTile case a product's flags select.
func epilogueMode(bias []float32, relu, accumulate bool) int {
	switch {
	case accumulate:
		return tileAccumulate
	case bias != nil && relu:
		return tileBiasReLU
	case bias != nil:
		return tileBias
	case relu:
		return tileReLU
	}
	return tileStore
}

// packedBody runs the micro-kernel over rows [start, end) of A, reading the
// first pb.K entries of each lda-strided row (lda = A.Cols for full-width
// products, larger K-prefix reads otherwise). On amd64 with AVX2+FMA the tile
// runs in assembly (simd_amd64.s): full 8×8 tiles are stored from registers
// with the epilogue applied, while edge panels and remainder rows go through
// the scratch tile and storeTile. Elsewhere a portable Go tile computes the
// same sums without fused rounding.
func packedBody(c, a *Matrix, lda int, pb *PackedB, bias []float32, relu, accumulate bool, cOff, start, end int) {
	k, n := pb.K, pb.N
	nPanels := pb.panels()
	var tile [packMR * packNR]float32
	i := start
	if useFMA && accelEnabled && k > 0 {
		mode := epilogueMode(bias, relu, accumulate)
		for ; i+packMR <= end; i += packMR {
			_ = a.Data[(i+packMR-1)*lda+k-1] // the kernel reads k entries of 8 rows
			aBand := &a.Data[i*lda]
			for p := 0; p < nPanels; p++ {
				j0 := p * packNR
				panel := &pb.data[p*k*packNR]
				if j0+packNR > n {
					fmaStore8x8(aBand, lda, panel, k, &tile[0], packNR, nil, tileStore)
					storeTile(c, tile[:], i, packMR, cOff+j0, j0, n-j0, bias, relu, accumulate)
					continue
				}
				var bp *float32
				if bias != nil {
					_ = bias[j0+packNR-1] // the kernel reads 8 bias entries
					bp = &bias[j0]
				}
				fmaStore8x8(aBand, lda, panel, k, tileDst(c, i, cOff+j0), c.Cols, bp, mode)
			}
		}
		for ; i < end; i++ {
			ai := &a.Data[i*lda]
			for p := 0; p < nPanels; p++ {
				j0 := p * packNR
				nj := n - j0
				if nj > packNR {
					nj = packNR
				}
				fmaTile1x8(ai, &pb.data[p*k*packNR], k, &tile[0])
				storeTile(c, tile[:], i, 1, cOff+j0, j0, nj, bias, relu, accumulate)
			}
		}
		return
	}
	for ; i < end; i++ {
		ai := a.Data[i*lda : i*lda+k]
		for p := 0; p < nPanels; p++ {
			j0 := p * packNR
			nj := n - j0
			if nj > packNR {
				nj = packNR
			}
			panel := pb.data[p*k*packNR : (p*k+k)*packNR]
			var acc [packNR]float32
			for kk := 0; kk < k; kk++ {
				v := ai[kk]
				pr := panel[kk*packNR : kk*packNR+packNR]
				acc[0] += v * pr[0]
				acc[1] += v * pr[1]
				acc[2] += v * pr[2]
				acc[3] += v * pr[3]
				acc[4] += v * pr[4]
				acc[5] += v * pr[5]
				acc[6] += v * pr[6]
				acc[7] += v * pr[7]
			}
			copy(tile[:packNR], acc[:])
			storeTile(c, tile[:], i, 1, cOff+j0, j0, nj, bias, relu, accumulate)
		}
	}
}

// tileDst returns &C[i][j] after checking that the whole packMR×packNR block
// from there lies inside C, so fmaStore8x8 cannot write past a row or past
// C's data.
func tileDst(c *Matrix, i, j int) *float32 {
	if i < 0 || j < 0 || i+packMR > c.Rows || j+packNR > c.Cols {
		panic(fmt.Sprintf("tensor: 8×8 tile at (%d,%d) outside a %d×%d matrix", i, j, c.Rows, c.Cols))
	}
	_ = c.Data[(i+packMR-1)*c.Cols+j+packNR-1]
	return &c.Data[i*c.Cols+j]
}

// storeTile writes an mr×nj register tile into C at (i0, cj0), applying the
// epilogue; j0 indexes the tile's columns within the packed operand (and its
// bias), which differ from C's columns when the product targets a window.
func storeTile(c *Matrix, tile []float32, i0, mr, cj0, j0, nj int, bias []float32, relu, accumulate bool) {
	for r := 0; r < mr; r++ {
		dst := c.Data[(i0+r)*c.Cols+cj0 : (i0+r)*c.Cols+cj0+nj]
		src := tile[r*packNR : r*packNR+nj]
		switch {
		case accumulate:
			for j := range dst {
				dst[j] += src[j]
			}
		case bias != nil && relu:
			for j := range dst {
				v := src[j] + bias[j0+j]
				if v < 0 {
					v = 0
				}
				dst[j] = v
			}
		case bias != nil:
			for j := range dst {
				dst[j] = src[j] + bias[j0+j]
			}
		case relu:
			for j := range dst {
				v := src[j]
				if v < 0 {
					v = 0
				}
				dst[j] = v
			}
		default:
			copy(dst, src)
		}
	}
}

// LinearReLU computes C = A·B + bias with an optional fused ReLU in a single
// sweep over C, packing B into a pooled buffer. This is the inference-path
// primitive behind nn.Linear: one call replaces MatMul + bias Axpy + ReLU.
func LinearReLU(c, a, b *Matrix, bias []float32, relu bool) {
	pb := packPool.Get().(*PackedB)
	pb.Pack(b)
	MatMulPacked(c, a, pb, bias, relu, false)
	packPool.Put(pb)
}

// LinearReLUCols computes only the column window C[:, j0:] = A·B[:, j0:] +
// bias[j0:] (optionally ReLU-fused), leaving columns below j0 untouched. C and
// bias span B's full column count; j0 = 0 degenerates to LinearReLU and
// j0 >= B.Cols is a no-op. Delta-forward sampling uses this to refresh just
// the suffix of hidden units whose degree admits the newly revealed column.
func LinearReLUCols(c, a, b *Matrix, bias []float32, relu bool, j0 int) {
	if j0 <= 0 {
		LinearReLU(c, a, b, bias, relu)
		return
	}
	if j0 >= b.Cols {
		return
	}
	pb := packPool.Get().(*PackedB)
	pb.PackCols(b, j0)
	var bw []float32
	if bias != nil {
		bw = bias[j0:]
	}
	matMulPackedAt(c, a, pb, bw, relu, false, j0)
	packPool.Put(pb)
}

// LinearReLUBand computes only the column band C[:, j0:j1) = A·B[:, j0:j1) +
// bias[j0:j1) (optionally ReLU-fused), leaving columns outside the band
// untouched. Unlike LinearReLUCols this refreshes an interior window, which is
// what a degree band of a masked hidden layer is: the units whose degree sits
// strictly between two adjacent sampling steps.
func LinearReLUBand(c, a, b *Matrix, bias []float32, relu bool, j0, j1 int) {
	if j0 >= j1 {
		return
	}
	pb := packPool.Get().(*PackedB)
	pb.PackRange(b, 0, b.Rows, j0, j1)
	var bw []float32
	if bias != nil {
		bw = bias[j0:j1]
	}
	matMulPackedAt(c, a, pb, bw, relu, false, j0)
	packPool.Put(pb)
}

// densitySamples bounds how many elements density inspects, so the dispatch
// decision costs O(1) instead of scaling with the operand.
const densitySamples = 2048

// density estimates the fraction of nonzero entries of A, the dispatch signal
// between the sparse-skipping naive kernel and the packed dense kernel. Large
// matrices are probed at a fixed stride derived only from the shape, so the
// decision is deterministic for a given operand and its cost stops growing
// with A's size. The stride is nudged off multiples of the row length:
// structured sparsity (one-hot blocks at fixed column offsets) would
// otherwise be sampled column-aligned and misread.
func density(a *Matrix) float64 {
	n := len(a.Data)
	if n == 0 {
		return 0
	}
	stride := 1
	if n > densitySamples {
		stride = n / densitySamples
		if a.Cols > 1 && stride%a.Cols == 0 {
			stride++
		}
	}
	nz, seen := 0, 0
	for i := 0; i < n; i += stride {
		seen++
		if a.Data[i] != 0 {
			nz++
		}
	}
	return float64(nz) / float64(seen)
}
