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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// useFMA gates the assembly micro-kernels on AVX2+FMA with OS-enabled YMM
// state; anything else falls back to the portable Go tile.
var useFMA = detectFMA()

func detectFMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avxBit = 1 << 28
	const fmaBit = 1 << 12
	if ecx1&osxsave == 0 || ecx1&avxBit == 0 || ecx1&fmaBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // XMM and YMM state saved by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}
