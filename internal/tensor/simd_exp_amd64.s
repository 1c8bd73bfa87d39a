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
