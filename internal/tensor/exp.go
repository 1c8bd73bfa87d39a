package tensor

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
