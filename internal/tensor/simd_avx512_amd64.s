//go:build amd64

#include "textflag.h"

// AVX-512 micro-kernels for 32- and 16-wide panels (declared and described in
// simd_amd64.go). They compute t[r][j] = sum over kk of
// a[r*lda+kk] * panel[kk*nr+j] as one FMA chain per element from +0, exactly
// as fmaStore8x8 and fmaTile1x8 do, and store the tile from registers with
// the same epilogue modes and operand order:
//
//	0 store       c = t
//	1 accumulate  c = c + t     (C is the first source)
//	2 bias        c = t + bias  (the tile is the first source)
//	3 bias+ReLU   c = max0(t + bias)
//	4 ReLU        c = max0(t)
//
// max0(v) is VMAXPS with zero as the first source, which keeps NaN and -0
// like Go's `if v < 0 { v = 0 }`. K1 enables columns 0-15 of the tile and
// K2 columns 16-31. Loads of C and the bias are zero-masked and stores are
// merge-masked, so an edge panel reads and writes only its live columns.
// Only AVX-512F instructions are used.
//
// Registers: accumulators from Z0, panel rows in Z16/Z17, broadcast scalars
// in Z18-Z25, C in Z28/Z29, bias in Z30/Z31, zero in Z27. Row pointers live
// in R8-R15, first into A (indexed by kk*4), then into C.

// ROWPTRS sets R8-R15 to base + r*stride for r = 0..7.
#define ROWPTRS(base, stride) \
	MOVQ base, R8;               \
	LEAQ (R8)(stride*1), R9;     \
	LEAQ (R9)(stride*1), R10;    \
	LEAQ (R10)(stride*1), R11;   \
	LEAQ (R11)(stride*1), R12;   \
	LEAQ (R12)(stride*1), R13;   \
	LEAQ (R13)(stride*1), R14;   \
	LEAQ (R14)(stride*1), R15

// MASKS loads the column mask argument into K1 (low 16 bits) and K2.
#define MASKS(arg) \
	MOVL  arg, AX; \
	KMOVW AX, K1;  \
	SHRL  $16, AX; \
	KMOVW AX, K2

// Per-row epilogue steps for one ZMM (16 columns at off(ptr)).
#define ACC(ptr, off, k, z) \
	VMOVUPS.Z off(ptr), k, Z28; \
	VADDPS    z, Z28, z

#define STORE(ptr, off, k, z) \
	VMOVUPS z, k, off(ptr)

#define RELU(z) \
	VMAXPS z, Z27, z

// func fmaStore8x32(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int, mask uint32)
//
// Row r accumulates in Z(2r) (columns 0-15) and Z(2r+1) (columns 16-31).
TEXT ·fmaStore8x32(SB), NOSPLIT, $0-68
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX // row stride in bytes
	MOVQ panel+16(FP), SI
	MOVQ k+24(FP), DX
	ROWPTRS(AX, BX)

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

	XORQ CX, CX
	TESTQ DX, DX
	JLE  done32
loop32:
	VMOVUPS      (SI), Z16
	VMOVUPS      64(SI), Z17
	VBROADCASTSS (R8)(CX*4), Z18
	VBROADCASTSS (R9)(CX*4), Z19
	VBROADCASTSS (R10)(CX*4), Z20
	VBROADCASTSS (R11)(CX*4), Z21
	VBROADCASTSS (R12)(CX*4), Z22
	VBROADCASTSS (R13)(CX*4), Z23
	VBROADCASTSS (R14)(CX*4), Z24
	VBROADCASTSS (R15)(CX*4), Z25
	VFMADD231PS  Z16, Z18, Z0
	VFMADD231PS  Z17, Z18, Z1
	VFMADD231PS  Z16, Z19, Z2
	VFMADD231PS  Z17, Z19, Z3
	VFMADD231PS  Z16, Z20, Z4
	VFMADD231PS  Z17, Z20, Z5
	VFMADD231PS  Z16, Z21, Z6
	VFMADD231PS  Z17, Z21, Z7
	VFMADD231PS  Z16, Z22, Z8
	VFMADD231PS  Z17, Z22, Z9
	VFMADD231PS  Z16, Z23, Z10
	VFMADD231PS  Z17, Z23, Z11
	VFMADD231PS  Z16, Z24, Z12
	VFMADD231PS  Z17, Z24, Z13
	VFMADD231PS  Z16, Z25, Z14
	VFMADD231PS  Z17, Z25, Z15
	ADDQ         $128, SI
	INCQ         CX
	CMPQ         CX, DX
	JLT          loop32
done32:
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), BX
	SHLQ $2, BX
	MOVQ bias+48(FP), SI
	MOVQ mode+56(FP), DX
	MASKS(mask+64(FP))
	ROWPTRS(DI, BX)

	CMPQ DX, $1
	JEQ  acc32
	CMPQ DX, $2
	JEQ  bias32
	CMPQ DX, $3
	JEQ  bias32
	CMPQ DX, $4
	JEQ  relu32
	JMP  store32

acc32:
	ACC(R8, 0, K1, Z0)
	ACC(R8, 64, K2, Z1)
	ACC(R9, 0, K1, Z2)
	ACC(R9, 64, K2, Z3)
	ACC(R10, 0, K1, Z4)
	ACC(R10, 64, K2, Z5)
	ACC(R11, 0, K1, Z6)
	ACC(R11, 64, K2, Z7)
	ACC(R12, 0, K1, Z8)
	ACC(R12, 64, K2, Z9)
	ACC(R13, 0, K1, Z10)
	ACC(R13, 64, K2, Z11)
	ACC(R14, 0, K1, Z12)
	ACC(R14, 64, K2, Z13)
	ACC(R15, 0, K1, Z14)
	ACC(R15, 64, K2, Z15)
	JMP store32

bias32:
	VMOVUPS.Z (SI), K1, Z30
	VMOVUPS.Z 64(SI), K2, Z31
	VADDPS    Z30, Z0, Z0
	VADDPS    Z31, Z1, Z1
	VADDPS    Z30, Z2, Z2
	VADDPS    Z31, Z3, Z3
	VADDPS    Z30, Z4, Z4
	VADDPS    Z31, Z5, Z5
	VADDPS    Z30, Z6, Z6
	VADDPS    Z31, Z7, Z7
	VADDPS    Z30, Z8, Z8
	VADDPS    Z31, Z9, Z9
	VADDPS    Z30, Z10, Z10
	VADDPS    Z31, Z11, Z11
	VADDPS    Z30, Z12, Z12
	VADDPS    Z31, Z13, Z13
	VADDPS    Z30, Z14, Z14
	VADDPS    Z31, Z15, Z15
	CMPQ      DX, $3
	JNE       store32

relu32:
	VPXORD Z27, Z27, Z27
	RELU(Z0)
	RELU(Z1)
	RELU(Z2)
	RELU(Z3)
	RELU(Z4)
	RELU(Z5)
	RELU(Z6)
	RELU(Z7)
	RELU(Z8)
	RELU(Z9)
	RELU(Z10)
	RELU(Z11)
	RELU(Z12)
	RELU(Z13)
	RELU(Z14)
	RELU(Z15)

store32:
	STORE(R8, 0, K1, Z0)
	STORE(R8, 64, K2, Z1)
	STORE(R9, 0, K1, Z2)
	STORE(R9, 64, K2, Z3)
	STORE(R10, 0, K1, Z4)
	STORE(R10, 64, K2, Z5)
	STORE(R11, 0, K1, Z6)
	STORE(R11, 64, K2, Z7)
	STORE(R12, 0, K1, Z8)
	STORE(R12, 64, K2, Z9)
	STORE(R13, 0, K1, Z10)
	STORE(R13, 64, K2, Z11)
	STORE(R14, 0, K1, Z12)
	STORE(R14, 64, K2, Z13)
	STORE(R15, 0, K1, Z14)
	STORE(R15, 64, K2, Z15)
	VZEROUPPER
	RET

// func fmaStore8x16(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int, mask uint32)
//
// Row r accumulates in Z(r); only K1 is used.
TEXT ·fmaStore8x16(SB), NOSPLIT, $0-68
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX
	MOVQ panel+16(FP), SI
	MOVQ k+24(FP), DX
	ROWPTRS(AX, BX)

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

	XORQ CX, CX
	TESTQ DX, DX
	JLE  done16
loop16:
	VMOVUPS      (SI), Z16
	VBROADCASTSS (R8)(CX*4), Z18
	VBROADCASTSS (R9)(CX*4), Z19
	VBROADCASTSS (R10)(CX*4), Z20
	VBROADCASTSS (R11)(CX*4), Z21
	VBROADCASTSS (R12)(CX*4), Z22
	VBROADCASTSS (R13)(CX*4), Z23
	VBROADCASTSS (R14)(CX*4), Z24
	VBROADCASTSS (R15)(CX*4), Z25
	VFMADD231PS  Z16, Z18, Z0
	VFMADD231PS  Z16, Z19, Z1
	VFMADD231PS  Z16, Z20, Z2
	VFMADD231PS  Z16, Z21, Z3
	VFMADD231PS  Z16, Z22, Z4
	VFMADD231PS  Z16, Z23, Z5
	VFMADD231PS  Z16, Z24, Z6
	VFMADD231PS  Z16, Z25, Z7
	ADDQ         $64, SI
	INCQ         CX
	CMPQ         CX, DX
	JLT          loop16
done16:
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), BX
	SHLQ $2, BX
	MOVQ bias+48(FP), SI
	MOVQ mode+56(FP), DX
	MASKS(mask+64(FP))
	ROWPTRS(DI, BX)

	CMPQ DX, $1
	JEQ  acc16
	CMPQ DX, $2
	JEQ  bias16
	CMPQ DX, $3
	JEQ  bias16
	CMPQ DX, $4
	JEQ  relu16
	JMP  store16

acc16:
	ACC(R8, 0, K1, Z0)
	ACC(R9, 0, K1, Z1)
	ACC(R10, 0, K1, Z2)
	ACC(R11, 0, K1, Z3)
	ACC(R12, 0, K1, Z4)
	ACC(R13, 0, K1, Z5)
	ACC(R14, 0, K1, Z6)
	ACC(R15, 0, K1, Z7)
	JMP store16

bias16:
	VMOVUPS.Z (SI), K1, Z30
	VADDPS    Z30, Z0, Z0
	VADDPS    Z30, Z1, Z1
	VADDPS    Z30, Z2, Z2
	VADDPS    Z30, Z3, Z3
	VADDPS    Z30, Z4, Z4
	VADDPS    Z30, Z5, Z5
	VADDPS    Z30, Z6, Z6
	VADDPS    Z30, Z7, Z7
	CMPQ      DX, $3
	JNE       store16

relu16:
	VPXORD Z27, Z27, Z27
	RELU(Z0)
	RELU(Z1)
	RELU(Z2)
	RELU(Z3)
	RELU(Z4)
	RELU(Z5)
	RELU(Z6)
	RELU(Z7)

store16:
	STORE(R8, 0, K1, Z0)
	STORE(R9, 0, K1, Z1)
	STORE(R10, 0, K1, Z2)
	STORE(R11, 0, K1, Z3)
	STORE(R12, 0, K1, Z4)
	STORE(R13, 0, K1, Z5)
	STORE(R14, 0, K1, Z6)
	STORE(R15, 0, K1, Z7)
	VZEROUPPER
	RET

// func fmaStore1x32(a *float32, panel *float32, k int, c *float32, bias *float32, mode int, mask uint32)
//
// One remainder row: columns 0-15 in Z0, 16-31 in Z1.
TEXT ·fmaStore1x32(SB), NOSPLIT, $0-52
	MOVQ a+0(FP), R8
	MOVQ panel+8(FP), SI
	MOVQ k+16(FP), DX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	XORQ CX, CX
	TESTQ DX, DX
	JLE  done1x32
loop1x32:
	VBROADCASTSS (R8)(CX*4), Z18
	VFMADD231PS  (SI), Z18, Z0
	VFMADD231PS  64(SI), Z18, Z1
	ADDQ         $128, SI
	INCQ         CX
	CMPQ         CX, DX
	JLT          loop1x32
done1x32:
	MOVQ c+24(FP), R8
	MOVQ bias+32(FP), SI
	MOVQ mode+40(FP), DX
	MASKS(mask+48(FP))

	CMPQ DX, $1
	JEQ  acc1x32
	CMPQ DX, $2
	JEQ  bias1x32
	CMPQ DX, $3
	JEQ  bias1x32
	CMPQ DX, $4
	JEQ  relu1x32
	JMP  store1x32

acc1x32:
	ACC(R8, 0, K1, Z0)
	ACC(R8, 64, K2, Z1)
	JMP store1x32

bias1x32:
	VMOVUPS.Z (SI), K1, Z30
	VMOVUPS.Z 64(SI), K2, Z31
	VADDPS    Z30, Z0, Z0
	VADDPS    Z31, Z1, Z1
	CMPQ      DX, $3
	JNE       store1x32

relu1x32:
	VPXORD Z27, Z27, Z27
	RELU(Z0)
	RELU(Z1)

store1x32:
	STORE(R8, 0, K1, Z0)
	STORE(R8, 64, K2, Z1)
	VZEROUPPER
	RET

// func fmaStore1x16(a *float32, panel *float32, k int, c *float32, bias *float32, mode int, mask uint32)
//
// One remainder row in Z0; only K1 is used.
TEXT ·fmaStore1x16(SB), NOSPLIT, $0-52
	MOVQ a+0(FP), R8
	MOVQ panel+8(FP), SI
	MOVQ k+16(FP), DX
	VPXORD Z0, Z0, Z0
	XORQ CX, CX
	TESTQ DX, DX
	JLE  done1x16
loop1x16:
	VBROADCASTSS (R8)(CX*4), Z18
	VFMADD231PS  (SI), Z18, Z0
	ADDQ         $64, SI
	INCQ         CX
	CMPQ         CX, DX
	JLT          loop1x16
done1x16:
	MOVQ c+24(FP), R8
	MOVQ bias+32(FP), SI
	MOVQ mode+40(FP), DX
	MASKS(mask+48(FP))

	CMPQ DX, $1
	JEQ  acc1x16
	CMPQ DX, $2
	JEQ  bias1x16
	CMPQ DX, $3
	JEQ  bias1x16
	CMPQ DX, $4
	JEQ  relu1x16
	JMP  store1x16

acc1x16:
	ACC(R8, 0, K1, Z0)
	JMP store1x16

bias1x16:
	VMOVUPS.Z (SI), K1, Z30
	VADDPS    Z30, Z0, Z0
	CMPQ      DX, $3
	JNE       store1x16

relu1x16:
	VPXORD Z27, Z27, Z27
	RELU(Z0)

store1x16:
	STORE(R8, 0, K1, Z0)
	VZEROUPPER
	RET
