//go:build amd64

#include "textflag.h"

// func fmaStore8x8(a *float32, lda int, panel *float32, k int, c *float32, ldc int, bias *float32, mode int)
//
// Computes t[r][j] = sum over kk of a[r*lda+kk] * panel[kk*8+j], r,j in 0..7,
// and stores the 8x8 tile straight from registers into c[r*ldc+j] with the
// epilogue named by mode (the tile* constants in packed.go):
//
//	0 store       c = t
//	1 accumulate  c = c + t
//	2 bias        c = t + bias[j]
//	3 bias+ReLU   c = max0(t + bias[j])
//	4 ReLU        c = max0(t)
//
// max0(v) is VMAXPS with zero as the first source, which returns v unless
// 0 > v: NaN and -0 pass through, exactly like Go's `if v < 0 { v = 0 }`.
// Each add keeps the scalar epilogue's operand order. Accumulators Y0..Y7
// (one YMM per output row), panel row in Y8, broadcast scalar in Y9. Row
// pointers live in R8..R15, first into A (indexed by kk*4), then into C.
TEXT ·fmaStore8x8(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX // row stride in bytes
	MOVQ panel+16(FP), SI
	MOVQ k+24(FP), DX

	MOVQ AX, R8
	LEAQ (AX)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), R14
	LEAQ (R14)(BX*1), R15

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	XORQ CX, CX
loop8:
	CMPQ CX, DX
	JGE  done8
	VMOVUPS (SI), Y8
	VBROADCASTSS (R8)(CX*4), Y9
	VFMADD231PS Y8, Y9, Y0
	VBROADCASTSS (R9)(CX*4), Y9
	VFMADD231PS Y8, Y9, Y1
	VBROADCASTSS (R10)(CX*4), Y9
	VFMADD231PS Y8, Y9, Y2
	VBROADCASTSS (R11)(CX*4), Y9
	VFMADD231PS Y8, Y9, Y3
	VBROADCASTSS (R12)(CX*4), Y9
	VFMADD231PS Y8, Y9, Y4
	VBROADCASTSS (R13)(CX*4), Y9
	VFMADD231PS Y8, Y9, Y5
	VBROADCASTSS (R14)(CX*4), Y9
	VFMADD231PS Y8, Y9, Y6
	VBROADCASTSS (R15)(CX*4), Y9
	VFMADD231PS Y8, Y9, Y7
	ADDQ $32, SI
	INCQ CX
	JMP  loop8
done8:
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), BX
	SHLQ $2, BX
	MOVQ bias+48(FP), SI
	MOVQ mode+56(FP), DX

	MOVQ DI, R8
	LEAQ (DI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), R14
	LEAQ (R14)(BX*1), R15

	CMPQ DX, $1
	JEQ  epiacc
	CMPQ DX, $2
	JEQ  epibias
	CMPQ DX, $3
	JEQ  epibias
	CMPQ DX, $4
	JEQ  epirelu
	JMP  epistore

epiacc:
	// c + t: C is the first source, as in `dst[j] += src[j]`.
	VMOVUPS (R8), Y8
	VADDPS  Y0, Y8, Y0
	VMOVUPS (R9), Y8
	VADDPS  Y1, Y8, Y1
	VMOVUPS (R10), Y8
	VADDPS  Y2, Y8, Y2
	VMOVUPS (R11), Y8
	VADDPS  Y3, Y8, Y3
	VMOVUPS (R12), Y8
	VADDPS  Y4, Y8, Y4
	VMOVUPS (R13), Y8
	VADDPS  Y5, Y8, Y5
	VMOVUPS (R14), Y8
	VADDPS  Y6, Y8, Y6
	VMOVUPS (R15), Y8
	VADDPS  Y7, Y8, Y7
	JMP     epistore

epibias:
	// t + bias: the tile is the first source, as in `src[j] + bias[j0+j]`.
	VMOVUPS (SI), Y8
	VADDPS  Y8, Y0, Y0
	VADDPS  Y8, Y1, Y1
	VADDPS  Y8, Y2, Y2
	VADDPS  Y8, Y3, Y3
	VADDPS  Y8, Y4, Y4
	VADDPS  Y8, Y5, Y5
	VADDPS  Y8, Y6, Y6
	VADDPS  Y8, Y7, Y7
	CMPQ    DX, $3
	JNE     epistore

epirelu:
	VXORPS Y9, Y9, Y9
	VMAXPS Y0, Y9, Y0
	VMAXPS Y1, Y9, Y1
	VMAXPS Y2, Y9, Y2
	VMAXPS Y3, Y9, Y3
	VMAXPS Y4, Y9, Y4
	VMAXPS Y5, Y9, Y5
	VMAXPS Y6, Y9, Y6
	VMAXPS Y7, Y9, Y7

epistore:
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, (R9)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, (R11)
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, (R13)
	VMOVUPS Y6, (R14)
	VMOVUPS Y7, (R15)
	VZEROUPPER
	RET

// func fmaTile1x8(a *float32, panel *float32, k int, tile *float32)
//
// tile[j] = sum over kk of a[kk] * panel[kk*8+j]. Single-row remainder kernel.
TEXT ·fmaTile1x8(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), R8
	MOVQ panel+8(FP), SI
	MOVQ k+16(FP), DX
	MOVQ tile+24(FP), DI
	VXORPS Y0, Y0, Y0
	XORQ CX, CX
loop1:
	CMPQ CX, DX
	JGE  done1
	VBROADCASTSS (R8)(CX*4), Y9
	VFMADD231PS (SI), Y9, Y0
	ADDQ $32, SI
	INCQ CX
	JMP  loop1
done1:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func axpyFMA(alpha float32, x, y *float32, n int)
//
// y[i] += alpha * x[i]. 8-wide FMA main loop with a scalar tail.
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y2
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), DX
	XORQ CX, CX
	MOVQ DX, BX
	ANDQ $-8, BX // n rounded down to a multiple of 8
axloop:
	CMPQ CX, BX
	JGE  axtail
	VMOVUPS (SI)(CX*4), Y0
	VMOVUPS (DI)(CX*4), Y1
	VFMADD231PS Y0, Y2, Y1
	VMOVUPS Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  axloop
axtail:
	CMPQ CX, DX
	JGE  axdone
	VMOVSS (SI)(CX*4), X0
	VMOVSS (DI)(CX*4), X1
	VFMADD231SS X0, X2, X1
	VMOVSS X1, (DI)(CX*4)
	INCQ CX
	JMP  axtail
axdone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
