//go:build amd64

#include "textflag.h"

// Constants for the 8-wide exp kernel, float32 broadcast via VBROADCASTSS.
// Cephes-style expf: n = floor(x*log2e + 0.5), r = x - n*C1 - n*C2 (ln2 split
// into an exactly-representable high part and a low correction), degree-6
// minimax polynomial for exp(r) on [-ln2/2, ln2/2], then a 2^n scale by
// integer addition into the exponent field. Inputs are max-subtracted logits
// (≤ 0); lanes below the underflow cutoff are masked to zero.
DATA expc<>+0(SB)/4, $0x3FB8AA3B  // log2(e)
DATA expc<>+4(SB)/4, $0x3F000000  // 0.5
DATA expc<>+8(SB)/4, $0x3F318000  // C1 = 0.693359375
DATA expc<>+12(SB)/4, $0xB95E8083 // C2 = -2.12194440e-4
DATA expc<>+16(SB)/4, $0x39506967 // p0 = 1.9875691500e-4
DATA expc<>+20(SB)/4, $0x3AB743CE // p1 = 1.3981999507e-3
DATA expc<>+24(SB)/4, $0x3C088908 // p2 = 8.3334519073e-3
DATA expc<>+28(SB)/4, $0x3D2AA9C1 // p3 = 4.1665795894e-2
DATA expc<>+32(SB)/4, $0x3E2AAAAA // p4 = 1.6666665459e-1
DATA expc<>+36(SB)/4, $0x3F000000 // p5 = 5.0000001201e-1
DATA expc<>+40(SB)/4, $0x3F800000 // 1.0
DATA expc<>+44(SB)/4, $0xC2AE0000 // underflow cutoff -87.0
GLOBL expc<>(SB), RODATA, $48

// func expRowSumAVX2(src *float32, n int, mx float32, dst *float64) float64
//
// dst[i] = expf(src[i] - mx) widened to float64 for i in [0, n); returns the
// float64 sum of the written values. n must be a multiple of 8 (caller
// handles the tail). The float64 accumulation keeps the softmax normalizer's
// precision independent of the domain size.
TEXT ·expRowSumAVX2(SB), NOSPLIT, $0-40
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ dst+24(FP), DI

	VBROADCASTSS mx+16(FP), Y15
	VBROADCASTSS expc<>+0(SB), Y14  // log2e
	VBROADCASTSS expc<>+4(SB), Y13  // 0.5
	VBROADCASTSS expc<>+8(SB), Y12  // C1
	VBROADCASTSS expc<>+12(SB), Y11 // C2
	VBROADCASTSS expc<>+40(SB), Y10 // 1.0
	VBROADCASTSS expc<>+44(SB), Y9  // cutoff

	VXORPD Y7, Y7, Y7 // f64 sum accumulator (low quad)
	VXORPD Y8, Y8, Y8 // f64 sum accumulator (high quad)

	XORQ CX, CX
exploop:
	CMPQ CX, DX
	JGE  expdone
	VMOVUPS (SI)(CX*4), Y0
	VSUBPS  Y15, Y0, Y0 // x = src - mx

	VCMPPS $13, Y9, Y0, Y6 // mask = x >= cutoff (GE_OS)

	// n = floor(x*log2e + 0.5)
	VMULPS   Y14, Y0, Y1
	VADDPS   Y13, Y1, Y1
	VROUNDPS $1, Y1, Y1 // floor

	// r = x - n*C1 - n*C2
	VMOVAPS     Y0, Y2
	VFNMADD231PS Y12, Y1, Y2
	VFNMADD231PS Y11, Y1, Y2

	// Horner: p = ((((p0*r+p1)*r+p2)*r+p3)*r+p4)*r+p5
	VBROADCASTSS expc<>+16(SB), Y3
	VBROADCASTSS expc<>+20(SB), Y4
	VFMADD213PS  Y4, Y2, Y3
	VBROADCASTSS expc<>+24(SB), Y4
	VFMADD213PS  Y4, Y2, Y3
	VBROADCASTSS expc<>+28(SB), Y4
	VFMADD213PS  Y4, Y2, Y3
	VBROADCASTSS expc<>+32(SB), Y4
	VFMADD213PS  Y4, Y2, Y3
	VBROADCASTSS expc<>+36(SB), Y4
	VFMADD213PS  Y4, Y2, Y3

	// f = (p*r)*r + r + 1
	VMULPS      Y2, Y3, Y3
	VFMADD213PS Y2, Y2, Y3
	VADDPS      Y10, Y3, Y3

	// scale by 2^n: add n to the exponent field
	VCVTPS2DQ Y1, Y1
	VPSLLD    $23, Y1, Y1
	VPADDD    Y1, Y3, Y3

	VANDPS Y6, Y3, Y3 // zero underflowed lanes

	// widen to float64, store, accumulate
	VCVTPS2PD     X3, Y4
	VEXTRACTF128 $1, Y3, X5
	VCVTPS2PD     X5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VADDPD  Y4, Y7, Y7
	VADDPD  Y5, Y8, Y8

	ADDQ $64, DI
	ADDQ $8, CX
	JMP  exploop
expdone:
	// reduce the two quad accumulators to one scalar
	VADDPD       Y8, Y7, Y7
	VEXTRACTF128 $1, Y7, X8
	VADDPD       X8, X7, X7
	VHADDPD      X7, X7, X7
	VZEROUPPER
	MOVSD X7, ret+32(FP)
	RET

// EXP16 computes Z3 = expf(Z0 - mx) for 16 lanes with expRowSumAVX2's
// operations and operand order, lanes below the cutoff (or NaN) zeroed
// through K1. Constants: mx Z15, log2e Z14, 0.5 Z13, C1 Z12, C2 Z11, 1.0
// Z10, cutoff Z9, p0-p5 Z16-Z21.
#define EXP16 \
	VSUBPS       Z15, Z0, Z0;     \
	VCMPPS       $13, Z9, Z0, K1; \
	VMULPS       Z14, Z0, Z1;     \
	VADDPS       Z13, Z1, Z1;     \
	VRNDSCALEPS  $1, Z1, Z1;      \
	VMOVAPS      Z0, Z2;          \
	VFNMADD231PS Z12, Z1, Z2;     \
	VFNMADD231PS Z11, Z1, Z2;     \
	VMOVAPS      Z16, Z3;         \
	VFMADD213PS  Z17, Z2, Z3;     \
	VFMADD213PS  Z18, Z2, Z3;     \
	VFMADD213PS  Z19, Z2, Z3;     \
	VFMADD213PS  Z20, Z2, Z3;     \
	VFMADD213PS  Z21, Z2, Z3;     \
	VMULPS       Z2, Z3, Z3;      \
	VFMADD213PS  Z2, Z2, Z3;      \
	VADDPS       Z10, Z3, Z3;     \
	VCVTPS2DQ    Z1, Z1;          \
	VPSLLD       $23, Z1, Z1;     \
	VPADDD       Z1, Z3, Z3;      \
	VMOVAPS.Z    Z3, K1, Z3

// func expRowSumAVX512(src *float32, n int, mx float32, dst *float64) float64
//
// expRowSumAVX2 at 16 floats per step, with every constant held in a ZMM
// register. VRNDSCALEPS $1 is VROUNDPS $1 (floor), and the K1-zeroing move
// is the AND with the cutoff mask. Lane i of the one float64 accumulator Z7
// adds elements i, i+8, i+16, ... in order, as lane i of expRowSumAVX2's two
// quad accumulators does, and the lanes reduce in the same tree, so the sum
// and every written element are the AVX2 kernel's bits. n must be a multiple
// of 8; an 8-float remainder runs one step on a half-masked load. Only
// AVX-512F instructions are used.
TEXT ·expRowSumAVX512(SB), NOSPLIT, $0-40
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ dst+24(FP), DI

	VBROADCASTSS mx+16(FP), Z15
	VBROADCASTSS expc<>+0(SB), Z14
	VBROADCASTSS expc<>+4(SB), Z13
	VBROADCASTSS expc<>+8(SB), Z12
	VBROADCASTSS expc<>+12(SB), Z11
	VBROADCASTSS expc<>+40(SB), Z10
	VBROADCASTSS expc<>+44(SB), Z9
	VBROADCASTSS expc<>+16(SB), Z16
	VBROADCASTSS expc<>+20(SB), Z17
	VBROADCASTSS expc<>+24(SB), Z18
	VBROADCASTSS expc<>+28(SB), Z19
	VBROADCASTSS expc<>+32(SB), Z20
	VBROADCASTSS expc<>+36(SB), Z21

	VPXORQ Z7, Z7, Z7 // f64 sum accumulator, lane i = elements ≡ i (mod 8)

	XORQ CX, CX
	MOVQ DX, BX
	ANDQ $-16, BX // n rounded down to a multiple of 16
zexploop:
	CMPQ CX, BX
	JGE  zexptail
	VMOVUPS (SI)(CX*4), Z0
	EXP16

	// widen to float64, store, accumulate elements 0-7 then 8-15
	VCVTPS2PD     Y3, Z4
	VEXTRACTF64X4 $1, Z3, Y5
	VCVTPS2PD     Y5, Z5
	VMOVUPD       Z4, (DI)
	VMOVUPD       Z5, 64(DI)
	VADDPD        Z4, Z7, Z7
	VADDPD        Z5, Z7, Z7

	ADDQ $128, DI
	ADDQ $16, CX
	JMP  zexploop
zexptail:
	CMPQ CX, DX
	JGE  zexpdone
	MOVL      $0xFF, AX
	KMOVW     AX, K2
	VMOVUPS.Z (SI)(CX*4), K2, Z0
	EXP16
	VCVTPS2PD Y3, Z4
	VMOVUPD   Z4, (DI)
	VADDPD    Z4, Z7, Z7
zexpdone:
	// lanes 0-3 + lanes 4-7, then expRowSumAVX2's reduction
	VEXTRACTF64X4 $1, Z7, Y8
	VADDPD        Y8, Y7, Y7
	VEXTRACTF128  $1, Y7, X8
	VADDPD        X8, X7, X7
	VHADDPD       X7, X7, X7
	VZEROUPPER
	MOVSD X7, ret+32(FP)
	RET

// Constants of math.Exp's FMA branch ($GOROOT/src/math/exp_amd64.s), written
// with the same decimal literals so the assembler rounds them to the same
// float64s, plus the kernels' own range limit, sign mask and exponent bias.
DATA expd<>+0(SB)/8, $1.4426950408889634073599246810018920           // LOG2E
DATA expd<>+8(SB)/8, $0.69314718055966295651160180568695068359375     // LN2U
DATA expd<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expd<>+24(SB)/8, $0.0625
DATA expd<>+32(SB)/8, $2.4801587301587301587e-5
DATA expd<>+40(SB)/8, $1.9841269841269841270e-4
DATA expd<>+48(SB)/8, $1.3888888888888888889e-3
DATA expd<>+56(SB)/8, $8.3333333333333333333e-3
DATA expd<>+64(SB)/8, $4.1666666666666666667e-2
DATA expd<>+72(SB)/8, $1.6666666666666666667e-1
DATA expd<>+80(SB)/8, $0.5
DATA expd<>+88(SB)/8, $1.0
DATA expd<>+96(SB)/8, $2.0
DATA expd<>+104(SB)/8, $707.0                // |x| limit: 2^n stays normal
DATA expd<>+112(SB)/8, $0x7FFFFFFFFFFFFFFF   // sign mask
DATA expd<>+120(SB)/8, $1023                 // exponent bias
GLOBL expd<>(SB), RODATA, $128

// func expShiftAVX2(src *float32, n int, mx float64, dst *float64) bool
//
// dst[i] = math.Exp(float64(src[i]) - mx) for i in [0, n), four lanes per
// step, n a multiple of 4. Each lane runs the avxfma branch of math.Exp's
// archExp for a finite argument inside its overflow bound, op for op: x·LOG2E
// rounded to an int32 n by VCVTPD2DQ (CVTSD2SL's MXCSR rounding), the two
// fused reductions by n·LN2U and n·LN2L, the scale by 1/16, the fused Horner
// chain, three y·(y+2) squarings and a fused (y+2)·y+1, then the product with
// 2^n built in the exponent field. Operands commute only where IEEE products
// and sums do. A lane with |x| > 707 or NaN, whose result could leave the
// normal range or take archExp's other branches, stops the kernel: it
// returns false and the caller recomputes the row with math.Exp.
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-33
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ dst+24(FP), DI

	VBROADCASTSD mx+16(FP), Y15
	VBROADCASTSD expd<>+112(SB), Y14 // sign mask
	VBROADCASTSD expd<>+104(SB), Y13 // 707
	VBROADCASTSD expd<>+0(SB), Y12   // LOG2E
	VBROADCASTSD expd<>+8(SB), Y11   // LN2U
	VBROADCASTSD expd<>+16(SB), Y10  // LN2L
	VBROADCASTSD expd<>+24(SB), Y9   // 1/16
	VBROADCASTSD expd<>+88(SB), Y8   // 1.0
	VBROADCASTSD expd<>+96(SB), Y7   // 2.0
	VBROADCASTSD expd<>+120(SB), Y6  // 1023

	XORQ R9, R9
y4loop:
	CMPQ R9, DX
	JGE  y4done
	VCVTPS2PD (SI)(R9*4), Y0
	VSUBPD    Y15, Y0, Y0 // x

	VANDPD    Y14, Y0, Y1
	VCMPPD    $2, Y13, Y1, Y1 // |x| <= 707 (LE_OS: false for NaN)
	VMOVMSKPD Y1, AX
	CMPL      AX, $15
	JNE       y4bail

	VMULPD       Y12, Y0, Y1 // x·LOG2E
	VCVTPD2DQY   Y1, X2      // n
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD Y11, Y1, Y0 // x -= n·LN2U
	VFNMADD231PD Y10, Y1, Y0 // x -= n·LN2L
	VMULPD       Y9, Y0, Y0  // x /= 16

	VBROADCASTSD expd<>+32(SB), Y3
	VBROADCASTSD expd<>+40(SB), Y5
	VFMADD213PD  Y5, Y0, Y3
	VBROADCASTSD expd<>+48(SB), Y5
	VFMADD213PD  Y5, Y0, Y3
	VBROADCASTSD expd<>+56(SB), Y5
	VFMADD213PD  Y5, Y0, Y3
	VBROADCASTSD expd<>+64(SB), Y5
	VFMADD213PD  Y5, Y0, Y3
	VBROADCASTSD expd<>+72(SB), Y5
	VFMADD213PD  Y5, Y0, Y3
	VBROADCASTSD expd<>+80(SB), Y5
	VFMADD213PD  Y5, Y0, Y3
	VFMADD213PD  Y8, Y0, Y3

	VMULPD      Y3, Y0, Y0 // y = x·p
	VADDPD      Y7, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      Y7, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      Y7, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      Y7, Y0, Y3
	VFMADD213PD Y8, Y3, Y0 // y = (y+2)·y + 1

	VPMOVSXDQ X2, Y4
	VPADDQ    Y6, Y4, Y4
	VPSLLQ    $52, Y4, Y4 // 2^n
	VMULPD    Y4, Y0, Y0
	VMOVUPD   Y0, (DI)(R9*8)

	ADDQ $4, R9
	JMP  y4loop
y4done:
	VZEROUPPER
	MOVB $1, ret+32(FP)
	RET
y4bail:
	VZEROUPPER
	MOVB $0, ret+32(FP)
	RET

// EXPSHIFT8 computes Z0 = math.Exp(x) for the eight lanes x of Z0 with
// expShiftAVX2's operations and operand order, taking the int32 n from Y2.
// Constants: LOG2E Z19, LN2U Z20, LN2L Z21, 1/16 Z22, the Horner
// coefficients Z23-Z29, 1.0 Z30, 2.0 Z31, the bias Z15.
#define EXPSHIFT8 \
	VMULPD       Z19, Z0, Z1; \
	VCVTPD2DQ    Z1, Y2;      \
	VCVTDQ2PD    Y2, Z1;      \
	VFNMADD231PD Z20, Z1, Z0; \
	VFNMADD231PD Z21, Z1, Z0; \
	VMULPD       Z22, Z0, Z0; \
	VMOVAPD      Z23, Z3;     \
	VFMADD213PD  Z24, Z0, Z3; \
	VFMADD213PD  Z25, Z0, Z3; \
	VFMADD213PD  Z26, Z0, Z3; \
	VFMADD213PD  Z27, Z0, Z3; \
	VFMADD213PD  Z28, Z0, Z3; \
	VFMADD213PD  Z29, Z0, Z3; \
	VFMADD213PD  Z30, Z0, Z3; \
	VMULPD       Z3, Z0, Z0;  \
	VADDPD       Z31, Z0, Z3; \
	VMULPD       Z3, Z0, Z0;  \
	VADDPD       Z31, Z0, Z3; \
	VMULPD       Z3, Z0, Z0;  \
	VADDPD       Z31, Z0, Z3; \
	VMULPD       Z3, Z0, Z0;  \
	VADDPD       Z31, Z0, Z3; \
	VFMADD213PD  Z30, Z3, Z0; \
	VPMOVSXDQ    Y2, Z4;      \
	VPADDQ       Z15, Z4, Z4; \
	VPSLLQ       $52, Z4, Z4; \
	VMULPD       Z4, Z0, Z0

// func expShiftAVX512(src *float32, n int, mx float64, dst *float64) bool
//
// expShiftAVX2 at eight lanes per step with every constant in a ZMM
// register, for any n ≥ 1: the last n mod 8 elements run one step on a
// masked load and a masked store (masked-off lanes neither fault nor write,
// and K2 keeps them out of the range check). Only AVX-512F instructions.
TEXT ·expShiftAVX512(SB), NOSPLIT, $0-33
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ dst+24(FP), DI

	VBROADCASTSD mx+16(FP), Z16
	VPBROADCASTQ expd<>+112(SB), Z17 // sign mask
	VBROADCASTSD expd<>+104(SB), Z18 // 707
	VBROADCASTSD expd<>+0(SB), Z19
	VBROADCASTSD expd<>+8(SB), Z20
	VBROADCASTSD expd<>+16(SB), Z21
	VBROADCASTSD expd<>+24(SB), Z22
	VBROADCASTSD expd<>+32(SB), Z23
	VBROADCASTSD expd<>+40(SB), Z24
	VBROADCASTSD expd<>+48(SB), Z25
	VBROADCASTSD expd<>+56(SB), Z26
	VBROADCASTSD expd<>+64(SB), Z27
	VBROADCASTSD expd<>+72(SB), Z28
	VBROADCASTSD expd<>+80(SB), Z29
	VBROADCASTSD expd<>+88(SB), Z30
	VBROADCASTSD expd<>+96(SB), Z31
	VPBROADCASTQ expd<>+120(SB), Z15

	XORQ R9, R9
	MOVQ DX, BX
	ANDQ $-8, BX // n rounded down to a multiple of 8
z8loop:
	CMPQ R9, BX
	JGE  z8tail
	VCVTPS2PD (SI)(R9*4), Z0
	VSUBPD    Z16, Z0, Z0 // x
	VPANDQ    Z17, Z0, Z1
	VCMPPD    $2, Z18, Z1, K1 // |x| <= 707 (LE_OS: false for NaN)
	KMOVW     K1, AX
	CMPL      AX, $0xFF
	JNE       z8bail
	EXPSHIFT8
	VMOVUPD   Z0, (DI)(R9*8)
	ADDQ      $8, R9
	JMP       z8loop
z8tail:
	MOVQ DX, CX
	SUBQ R9, CX // 0..7 elements left
	JE   z8done
	MOVL      $1, AX
	SHLL      CX, AX
	DECL      AX
	KMOVW     AX, K2
	VMOVUPS.Z (SI)(R9*4), K2, Z1
	VCVTPS2PD Y1, Z0
	VSUBPD    Z16, Z0, Z0
	VPANDQ    Z17, Z0, Z1
	VCMPPD    $2, Z18, Z1, K2, K1
	KMOVW     K1, CX
	CMPL      CX, AX
	JNE       z8bail
	EXPSHIFT8
	VMOVUPD   Z0, K2, (DI)(R9*8)
z8done:
	VZEROUPPER
	MOVB $1, ret+32(FP)
	RET
z8bail:
	VZEROUPPER
	MOVB $0, ret+32(FP)
	RET
