package tensor

import "math"

// ExpRow computes dst[i] = expf(src[i] - mx) widened to float64 for the
// longest multiple-of-8 prefix the vector kernel can take, returning the
// float64 sum of the written values and the number of elements processed (0
// when no kernel is active — the caller's scalar path then covers the whole
// row, and always covers the tail). This is the softmax-row primitive: the
// max-subtracted arguments are ≤ 0, underflow flushes to zero, and the
// accumulation is float64 so the normalizer's precision does not degrade
// with domain size. The sum is eight float64 lanes, lane i adding elements
// i, i+8, … in order, reduced in a fixed tree: the AVX2 and AVX-512 kernels
// give the same bits, but not the bits of a scalar left-to-right sum.
func ExpRow(dst []float64, src []float32, mx float32) (float64, int) {
	if len(dst) != len(src) {
		panic("tensor: ExpRow length mismatch")
	}
	head := len(src) &^ 7
	if head == 0 || !useFMA || !accelEnabled {
		return 0, 0
	}
	if useAVX512 {
		return expRowSumAVX512(&src[0], head, mx, &dst[0]), head
	}
	return expRowSumAVX2(&src[0], head, mx, &dst[0]), head
}

// ExpShift sets dst[i] = math.Exp(float64(src[i]) - mx) for every i, with
// math.Exp's bits: nn's loss and softmax passes call it for a row's
// exponentials against the row maximum. Where AVX2 and FMA are on,
// math.Exp runs the FMA branch of its amd64 assembly, and the vector kernels
// repeat that branch op for op, eight float64 lanes per step on AVX-512 and
// four on AVX2 (a tail of fewer than four then calls math.Exp). A row with a
// shifted value outside ±707, NaN included, is recomputed whole by math.Exp,
// as is every row off amd64 or under SetAccel(false). The kernels' bits are
// therefore math.Exp's on the machine that runs them.
func ExpShift(dst []float64, src []float32, mx float64) {
	if len(dst) != len(src) {
		panic("tensor: ExpShift length mismatch")
	}
	head := 0
	switch n := len(src); {
	case !useFMA || !accelEnabled || n == 0:
	case useAVX512:
		if expShiftAVX512(&src[0], n, mx, &dst[0]) {
			head = n
		}
	case n >= 4:
		if expShiftAVX2(&src[0], n&^3, mx, &dst[0]) {
			head = n &^ 3
		}
	}
	for i := head; i < len(src); i++ {
		dst[i] = math.Exp(float64(src[i]) - mx)
	}
}
