package tensor

import "fmt"

// Row passes of the decode softmax and the first-layer fold. Each runs an
// AVX2 kernel (simd_rows_amd64.s) over the longest prefix that fills whole
// vectors and the scalar loop it replaces over the tail; ScaleRow runs its
// AVX-512 kernel instead where the CPU has one (useAVX512), with the same
// bits. The kernels are bit for bit the scalar loops; where one cannot be (a
// row MaxRow's kernel cannot rank), the scalar loop takes the whole row, as
// it does whenever no kernel is active (SetAccel(false), non-amd64).

// MaxRow returns the largest element of a non-empty row by the rule
// `mx := src[0]; if v > mx { mx = v }`: a NaN at index 0 is the result, NaNs
// after it are skipped, and of equal maxima the first one's bits are kept,
// which matters only for the sign of a zero. The kernel's answer is exact
// when its prefix holds no NaN and its maximum is not a zero; any other row
// is re-scanned by the scalar loop.
func MaxRow(src []float32) float32 {
	if head := len(src) &^ 7; head > 0 && useFMA && accelEnabled {
		if mx, ok := maxRowAVX2(&src[0], head); ok && mx != 0 {
			for _, v := range src[head:] {
				if v > mx {
					mx = v
				}
			}
			return mx
		}
	}
	mx := src[0]
	for _, v := range src[1:] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// ScaleRow multiplies every element of dst by s: the softmax normalise.
func ScaleRow(dst []float64, s float64) {
	head := 0
	if useFMA && accelEnabled {
		if head = len(dst) &^ 3; head > 0 {
			if useAVX512 {
				scaleRowAVX512(&dst[0], head, s)
			} else {
				scaleRowAVX2(&dst[0], head, s)
			}
		}
	}
	for i := head; i < len(dst); i++ {
		dst[i] *= s
	}
}

// PositivePart sets dst[j] = src[j] where src[j] > 0 and +0 elsewhere, so NaN
// and -0 both become +0: the fold's post-ReLU re-clamp. The GEMM epilogue's
// ReLU is `if v < 0 { v = 0 }`, which keeps NaN and -0; the two are not
// interchangeable bit for bit.
func PositivePart(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: PositivePart length mismatch %d vs %d", len(dst), len(src)))
	}
	head := 0
	if useFMA && accelEnabled {
		if head = len(src) &^ 7; head > 0 {
			positivePartAVX2(&dst[0], &src[0], head)
		}
	}
	for j := head; j < len(src); j++ {
		if v := src[j]; v > 0 {
			dst[j] = v
		} else {
			dst[j] = 0
		}
	}
}
