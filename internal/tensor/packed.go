package tensor

import (
	"fmt"
	"sync"
)

// Packed, register-tiled GEMM. The naive i-k-j product in gemm.go streams B
// row by row and touches C once per (k, j) pair; profitable only when A is
// very sparse (one-hot encodings). For the dense products that dominate
// inference — hidden-layer activations times 128×128 weight blocks — the
// kernels below first pack B into contiguous column panels (packNR, 16 or 32
// wide; see panelWidth), then drive a packMR-row micro-kernel whose
// accumulators live in registers, so each element of C is written exactly
// once and each panel of B is read sequentially for every row band of A. An
// optional epilogue fuses the bias add and ReLU into the same sweep, turning
// the three memory passes of Linear→bias→ReLU into one.

const (
	packMR = 8 // rows of A per micro-kernel invocation
	packNR = 8 // columns per panel on the AVX2 and portable paths: one YMM register
)

// panelWidth is the panel width a K×N operand is packed with. With the
// AVX-512 kernels available, N ≥ 32 gets two ZMM registers per panel row and
// 8 < N < 32 one; anything narrower keeps the 8-wide AVX2 panel, where a ZMM
// panel would be mostly padding. It depends only on the CPU and N, never on
// SetAccel, so a product always finds its operand in the layout it was
// packed with.
func panelWidth(n int) int {
	switch {
	case !useAVX512 || n <= packNR:
		return packNR
	case n >= 32:
		return 32
	}
	return 16
}

// PackedB is matrix B repacked for the micro-kernel: column panels of width
// nr, each panel holding its K rows contiguously, zero-padded on the last
// panel. Packing costs O(K·N) and is amortized over the O(M·K·N) product.
type PackedB struct {
	K, N int
	nr   int // panel width (panelWidth(N) at pack time)
	data []float32
}

// panels returns the number of nr-wide column panels.
func (pb *PackedB) panels() int { return (pb.N + pb.nr - 1) / pb.nr }

// reserve sizes the backing array for a K×N source, reusing capacity.
func (pb *PackedB) reserve(k, n int) {
	pb.K, pb.N, pb.nr = k, n, panelWidth(n)
	need := pb.panels() * k * pb.nr
	if cap(pb.data) < need {
		pb.data = make([]float32, need)
	}
	pb.data = pb.data[:need]
}

// Pack fills pb from B (K×N, row-major), reusing pb's storage when possible.
func (pb *PackedB) Pack(b *Matrix) { pb.PackRange(b, 0, b.Rows, 0, b.Cols) }

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
	k, stride, n, nr := pb.K, b.Cols, pb.N, pb.nr
	for p := 0; p < pb.panels(); p++ {
		pj := p * nr
		nj := min(nr, n-pj)
		dst := pb.data[p*k*nr:]
		for r := 0; r < k; r++ {
			src := b.Data[(i0+r)*stride+j0+pj:]
			d := dst[r*nr : r*nr+nr]
			copy(d, src[:nj])
			clear(d[nj:])
		}
	}
}

// PackTrans fills pb with Bᵀ: the logical operand is the transpose of the
// stored n×k matrix b, so panel column j is row j0+j of b. This is the decode
// and dX=dY·Wᵀ layout, replacing MatMulTransB's per-element dot products.
func (pb *PackedB) PackTrans(b *Matrix) {
	pb.reserve(b.Cols, b.Rows)
	k, n, nr := b.Cols, b.Rows, pb.nr // logical dims of Bᵀ
	for p := 0; p < pb.panels(); p++ {
		j0 := p * nr
		nj := min(nr, n-j0)
		dst := pb.data[p*k*nr:]
		for j := 0; j < nj; j++ {
			src := b.Data[(j0+j)*k : (j0+j+1)*k]
			for r := 0; r < k; r++ {
				dst[r*nr+j] = src[r]
			}
		}
		if nj < nr {
			for r := 0; r < k; r++ {
				clear(dst[r*nr+nj : r*nr+nr])
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
//
// Products of parallelThreshold multiply-adds or more fan their rows out over
// ParallelFor. Training and the full forward reach this entry through MatMul
// and LinearReLU; the sampling walk calls the serial MatMulPackedWindow and
// MatMulPackedPrefix instead, so its worker budget is its only parallelism.
func MatMulPacked(c, a *Matrix, pb *PackedB, bias []float32, relu, accumulate bool) {
	if c.Cols != pb.N {
		panic(fmt.Sprintf("tensor: MatMulPacked C has %d columns, packed B has %d", c.Cols, pb.N))
	}
	checkWindow(c, a, pb, bias, relu, accumulate, 0)
	// The serial branch calls packedBody directly: creating the closure first
	// would heap-allocate it even when ParallelFor is never reached (it
	// escapes into the goroutine path).
	if a.Rows*a.Cols*pb.N < parallelThreshold {
		packedBody(c, a, a.Cols, pb, bias, relu, accumulate, 0, 0, a.Rows)
		return
	}
	ParallelFor(a.Rows, func(start, end int) {
		packedBody(c, a, a.Cols, pb, bias, relu, accumulate, 0, start, end)
	})
}

// checkWindow panics unless C[:, cOff:cOff+pb.N] = A·B is a well-formed
// product: A is K = pb.K wide, C has A's rows and holds the window, and bias,
// when present, covers just the window (pb.N entries).
func checkWindow(c, a *Matrix, pb *PackedB, bias []float32, relu, accumulate bool, cOff int) {
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
}

// MatMulPackedWindow computes the column window C[:, cOff:cOff+pb.N] = A·B
// (or += with accumulate) against a caller-held packed operand, leaving the
// columns outside the window untouched; bias, when present, covers just the
// window. The model packs a weight window once and replays it every sampling
// step without a pack pass. It runs on the calling goroutine at any size and
// allocates nothing.
func MatMulPackedWindow(c, a *Matrix, pb *PackedB, bias []float32, relu, accumulate bool, cOff int) {
	checkWindow(c, a, pb, bias, relu, accumulate, cOff)
	packedBody(c, a, a.Cols, pb, bias, relu, accumulate, cOff, 0, a.Rows)
}

// MatMulPackedPrefix computes C[:, cOff:cOff+pb.N] = A[:, :pb.K]·B from a
// pre-packed B whose K dimension is a prefix of A's columns (pb.K ≤ A.Cols).
// Masked output heads read only the hidden units whose degree admits their
// column — a prefix under degree sorting — so packing just those pb.K weight
// rows and walking A with its full row stride skips the provably-zero tail of
// the dot product while producing bit-identical sums (the skipped terms are
// exact zeros appended after the same-order prefix accumulation). Like
// MatMulPackedWindow it runs on the calling goroutine and allocates nothing.
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
	packedBody(c, a, a.Cols, pb, bias, relu, accumulate, cOff, 0, a.Rows)
}

// Epilogue modes of the storing kernels (fmaStore8x8, fmaStore8x32, …), one
// per storeTile case.
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
// products, larger K-prefix reads otherwise). With the accelerated kernels
// on, the panel width picks the assembly: 16- and 32-wide panels run the
// AVX-512 kernels (zmmBody), 8-wide ones the AVX2 kernels. Both compute every
// element as the same k-ordered chain of fused multiply-adds from +0, so the
// two paths agree bit for bit. Otherwise (SetAccel(false), no AVX2+FMA) a
// portable Go tile computes the same sums without fused rounding.
func packedBody(c, a *Matrix, lda int, pb *PackedB, bias []float32, relu, accumulate bool, cOff, start, end int) {
	switch {
	case !useFMA || !accelEnabled || pb.K == 0:
		portableBody(c, a, lda, pb, bias, relu, accumulate, cOff, start, end)
	case pb.nr > packNR:
		zmmBody(c, a, lda, pb, bias, epilogueMode(bias, relu, accumulate), cOff, start, end)
	default:
		ymmBody(c, a, lda, pb, bias, relu, accumulate, cOff, start, end)
	}
}

// ymmBody drives the AVX2 kernels over 8-wide panels: full 8×8 tiles are
// stored from registers with the epilogue applied, while edge panels and
// remainder rows go through the scratch tile and storeTile.
func ymmBody(c, a *Matrix, lda int, pb *PackedB, bias []float32, relu, accumulate bool, cOff, start, end int) {
	k, n := pb.K, pb.N
	nPanels := pb.panels()
	mode := epilogueMode(bias, relu, accumulate)
	var tile [packMR * packNR]float32
	i := start
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
			fmaStore8x8(aBand, lda, panel, k, tileDst(c, i, cOff+j0, packMR, packNR), c.Cols, biasWindow(bias, j0, packNR), mode)
		}
	}
	for ; i < end; i++ {
		ai := &a.Data[i*lda]
		for p := 0; p < nPanels; p++ {
			j0 := p * packNR
			fmaTile1x8(ai, &pb.data[p*k*packNR], k, &tile[0])
			storeTile(c, tile[:], i, 1, cOff+j0, j0, min(packNR, n-j0), bias, relu, accumulate)
		}
	}
}

// zmmBody drives the AVX-512 kernels over 16- or 32-wide panels. Every tile,
// full or edge, 8 rows or a remainder row, is stored from registers with the
// epilogue applied: the kernel masks its loads of C and the bias and its
// stores to the panel's nj live columns, so no product falls back to the
// scratch tile or the portable loop.
func zmmBody(c, a *Matrix, lda int, pb *PackedB, bias []float32, mode, cOff, start, end int) {
	k, n, nr := pb.K, pb.N, pb.nr
	i := start
	for ; i+packMR <= end; i += packMR {
		_ = a.Data[(i+packMR-1)*lda+k-1] // the kernel reads k entries of 8 rows
		aBand := &a.Data[i*lda]
		for j0 := 0; j0 < n; j0 += nr {
			nj := min(nr, n-j0)
			panel := &pb.data[j0*k] // panel j0/nr starts at (j0/nr)·k·nr
			dst, bp, mask := tileDst(c, i, cOff+j0, packMR, nj), biasWindow(bias, j0, nj), colMask(nj)
			if nr == 32 {
				fmaStore8x32(aBand, lda, panel, k, dst, c.Cols, bp, mode, mask)
			} else {
				fmaStore8x16(aBand, lda, panel, k, dst, c.Cols, bp, mode, mask)
			}
		}
	}
	for ; i < end; i++ {
		_ = a.Data[i*lda+k-1]
		ai := &a.Data[i*lda]
		for j0 := 0; j0 < n; j0 += nr {
			nj := min(nr, n-j0)
			panel := &pb.data[j0*k]
			dst, bp, mask := tileDst(c, i, cOff+j0, 1, nj), biasWindow(bias, j0, nj), colMask(nj)
			if nr == 32 {
				fmaStore1x32(ai, panel, k, dst, bp, mode, mask)
			} else {
				fmaStore1x16(ai, panel, k, dst, bp, mode, mask)
			}
		}
	}
}

// colMask is the kernel's column mask for a tile with nj live columns: bit j
// set for j < nj (nj ≤ 32).
func colMask(nj int) uint32 { return uint32(1)<<uint(nj) - 1 }

// portableBody is the Go tile: each row of A against each 8-column group of
// every panel, whatever the panel width.
func portableBody(c, a *Matrix, lda int, pb *PackedB, bias []float32, relu, accumulate bool, cOff, start, end int) {
	k, n, nr := pb.K, pb.N, pb.nr
	for i := start; i < end; i++ {
		ai := a.Data[i*lda : i*lda+k]
		for j0 := 0; j0 < n; j0 += packNR {
			// The group's column in row kk of its panel is at off + kk·nr.
			panel, off := pb.data[(j0/nr)*k*nr:], j0%nr
			var acc [packNR]float32
			for _, v := range ai {
				pr := panel[off : off+packNR]
				off += nr
				acc[0] += v * pr[0]
				acc[1] += v * pr[1]
				acc[2] += v * pr[2]
				acc[3] += v * pr[3]
				acc[4] += v * pr[4]
				acc[5] += v * pr[5]
				acc[6] += v * pr[6]
				acc[7] += v * pr[7]
			}
			storeTile(c, acc[:], i, 1, cOff+j0, j0, min(packNR, n-j0), bias, relu, accumulate)
		}
	}
}

// tileDst returns &C[i][j] after checking that the whole mr×nj block from
// there lies inside C, so an assembly kernel storing that tile cannot write
// past a row or past C's data.
func tileDst(c *Matrix, i, j, mr, nj int) *float32 {
	if i < 0 || j < 0 || mr < 1 || nj < 1 || i+mr > c.Rows || j+nj > c.Cols {
		panic(fmt.Sprintf("tensor: %d×%d tile at (%d,%d) outside a %d×%d matrix", mr, nj, i, j, c.Rows, c.Cols))
	}
	_ = c.Data[(i+mr-1)*c.Cols+j+nj-1]
	return &c.Data[i*c.Cols+j]
}

// biasWindow returns &bias[j0] after checking that the nj entries a kernel
// reads from there exist, or nil for a product without a bias.
func biasWindow(bias []float32, j0, nj int) *float32 {
	if bias == nil {
		return nil
	}
	_ = bias[j0+nj-1]
	return &bias[j0]
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
