//go:build !amd64

package tensor

// Non-amd64 builds use the portable Go micro-kernel exclusively.
const useFMA = false

func fmaStore8x8(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int) {
	panic("tensor: fmaStore8x8 without amd64")
}

func fmaTile1x8(a *float32, panel *float32, k int, tile *float32) {
	panic("tensor: fmaTile1x8 without amd64")
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
