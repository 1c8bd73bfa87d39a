//go:build !amd64

package tensor

// Non-amd64 builds use the portable Go micro-kernel exclusively.
const useFMA = false

// useAVX512 is a variable, as on amd64, so tests can force the wide panel
// layouts through the portable loops.
var useAVX512 = false

func fmaStore8x8(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int) {
	panic("tensor: fmaStore8x8 without amd64")
}

func fmaTile1x8(a *float32, panel *float32, k int, tile *float32) {
	panic("tensor: fmaTile1x8 without amd64")
}

func fmaStore8x32(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int, mask uint32) {
	panic("tensor: fmaStore8x32 without amd64")
}

func fmaStore8x16(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int, mask uint32) {
	panic("tensor: fmaStore8x16 without amd64")
}

func fmaStore1x32(a *float32, panel *float32, k int, c *float32, bias *float32, mode int, mask uint32) {
	panic("tensor: fmaStore1x32 without amd64")
}

func fmaStore1x16(a *float32, panel *float32, k int, c *float32, bias *float32, mode int, mask uint32) {
	panic("tensor: fmaStore1x16 without amd64")
}

func axpyFMA(alpha float32, x, y *float32, n int) {
	panic("tensor: axpyFMA without amd64")
}

func expRowSumAVX2(src *float32, n int, mx float32, dst *float64) float64 {
	panic("tensor: expRowSumAVX2 without amd64")
}

func maxRowAVX2(src *float32, n int) (float32, bool) {
	panic("tensor: maxRowAVX2 without amd64")
}

func scaleRowAVX2(dst *float64, n int, s float64) {
	panic("tensor: scaleRowAVX2 without amd64")
}

func positivePartAVX2(dst, src *float32, n int) {
	panic("tensor: positivePartAVX2 without amd64")
}

func expRowSumAVX512(src *float32, n int, mx float32, dst *float64) float64 {
	panic("tensor: expRowSumAVX512 without amd64")
}

func scaleRowAVX512(dst *float64, n int, s float64) {
	panic("tensor: scaleRowAVX512 without amd64")
}

func expShiftAVX2(src *float32, n int, mx float64, dst *float64) bool {
	panic("tensor: expShiftAVX2 without amd64")
}

func expShiftAVX512(src *float32, n int, mx float64, dst *float64) bool {
	panic("tensor: expShiftAVX512 without amd64")
}
