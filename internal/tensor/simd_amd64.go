//go:build amd64

package tensor

// AVX2/FMA micro-kernels for the packed GEMM (simd_amd64.s). The panel layout
// (packNR floats per K step, contiguous) maps a panel row onto exactly one YMM
// register, so the inner product for a packMR×packNR tile is one vector load
// plus packMR broadcast-FMA pairs per K step.
//
// fmaStore8x8 computes the 8×8 tile Σ_kk a[r*lda+kk] * panel[kk*8+j] for an
// 8-row band and stores it from registers into c[r*ldc+j], applying the
// epilogue mode (tileStore … tileReLU, packed.go) on the way; the caller has
// checked that the 8×8 window of c and the 8 bias entries are in bounds.
// fmaTile1x8 is the single-row remainder and overwrites its 8-float tile. The
// FMA contraction rounds once per multiply-add, so results can differ from
// the pure-Go fallback in the last bit — every run on the same machine takes
// the same path, which is what the determinism contract (bit-reproducibility
// for fixed inputs on one host) requires. The epilogue itself is the same
// IEEE add and clamp storeTile does, so it adds no such difference.

//go:noescape
func fmaStore8x8(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int)

//go:noescape
func fmaTile1x8(a *float32, panel *float32, k int, tile *float32)

// AVX-512 micro-kernels (simd_avx512_amd64.s) for 32- and 16-wide panels:
// two ZMM registers, or one, per panel row. fmaStore8x32 and fmaStore8x16
// compute an 8-row tile, fmaStore1x32 and fmaStore1x16 a single remainder
// row; each stores from registers with the same epilogue modes and operand
// order as fmaStore8x8. Bit j of mask enables column j of the tile: loads of
// C and the bias and the stores to C are masked to the nj live columns of an
// edge panel (masked-off lanes neither fault nor write), while the panel
// itself is zero-padded to full width. Every element is the same k-ordered
// FMA chain as in the AVX2 kernels, so the two paths give identical bits.

//go:noescape
func fmaStore8x32(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int, mask uint32)

//go:noescape
func fmaStore8x16(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int, mask uint32)

//go:noescape
func fmaStore1x32(a *float32, panel *float32, k int, c *float32, bias *float32, mode int, mask uint32)

//go:noescape
func fmaStore1x16(a *float32, panel *float32, k int, c *float32, bias *float32, mode int, mask uint32)

//go:noescape
func axpyFMA(alpha float32, x, y *float32, n int)

//go:noescape
func expRowSumAVX2(src *float32, n int, mx float32, dst *float64) float64

//go:noescape
func maxRowAVX2(src *float32, n int) (mx float32, ok bool)

//go:noescape
func scaleRowAVX2(dst *float64, n int, s float64)

//go:noescape
func positivePartAVX2(dst, src *float32, n int)

// The softmax row passes on ZMM registers (simd_exp_amd64.s and
// simd_rows_amd64.s): expRowSumAVX512 takes 16 floats per step and
// scaleRowAVX512 8 doubles, each with the AVX2 kernel's operations, operand
// order and float64 summation order, so the two paths write the same bits.
// They run when useAVX512 is set.

//go:noescape
func expRowSumAVX512(src *float32, n int, mx float32, dst *float64) float64

//go:noescape
func scaleRowAVX512(dst *float64, n int, s float64)

// expShiftAVX2 and expShiftAVX512 (simd_exp_amd64.s) write math.Exp's bits
// for one row of shifted float32s, four or eight float64 lanes per step; see
// ExpShift. The AVX2 kernel takes n a multiple of 4, the AVX-512 kernel any
// n ≥ 1. Each reports false, leaving dst partly written, when a lane falls
// outside the range it repeats archExp for.

//go:noescape
func expShiftAVX2(src *float32, n int, mx float64, dst *float64) bool

//go:noescape
func expShiftAVX512(src *float32, n int, mx float64, dst *float64) bool

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// useFMA gates the assembly micro-kernels on AVX2+FMA with OS-enabled YMM
// state; anything else falls back to the portable Go tile. useAVX512 selects
// the 16- and 32-wide ZMM panels (panelWidth) and with them the AVX-512
// kernels, and the AVX-512 softmax row passes. Both are fixed at start-up
// from CPUID and XCR0; tests clear useAVX512 to run the same products and
// rows through the AVX2 path.
var useFMA, useAVX512 = detectSIMD()

// detectSIMD reports AVX2+FMA with the XMM and YMM state enabled by the OS
// (XCR0 bits 1 and 2), and AVX-512F on top of it with the opmask and all 32
// ZMM registers' state enabled too (XCR0 bits 5, 6 and 7).
func detectSIMD() (fma, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avxBit = 1 << 28
	const fmaBit = 1 << 12
	if ecx1&osxsave == 0 || ecx1&avxBit == 0 || ecx1&fmaBit == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	const ymmState = 1<<1 | 1<<2
	const zmmState = ymmState | 1<<5 | 1<<6 | 1<<7
	fma = xcr0&ymmState == ymmState && ebx7&(1<<5) != 0            // AVX2
	avx512 = fma && xcr0&zmmState == zmmState && ebx7&(1<<16) != 0 // AVX512F
	return fma, avx512
}
