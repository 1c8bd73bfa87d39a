//go:build amd64

#include "textflag.h"

// Row passes of the decode softmax and the first-layer fold (rows.go). Each
// kernel takes a prefix whose length is a multiple of its lane count; the Go
// wrapper runs the scalar loop over the tail.

// func maxRowAVX2(src *float32, n int) (mx float32, ok bool)
//
// mx = the largest of src[0:n] and ok = no element is NaN; n is a positive
// multiple of 8. Four running maxima (Y0, Y4, Y5, Y6) hide the VMAXPS latency;
// Y1 collects the unordered-compare mask that flags a NaN. Which lane's zero
// survives a tie is unspecified, so the caller re-scans rows whose maximum is
// a zero.
TEXT ·maxRowAVX2(SB), NOSPLIT, $0-21
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), DX
	VMOVUPS (SI), Y0
	VMOVAPS Y0, Y4
	VMOVAPS Y0, Y5
	VMOVAPS Y0, Y6
	VCMPPS  $3, Y0, Y0, Y1 // UNORD_Q: lanes holding a NaN
	MOVQ    $8, CX
	MOVQ    DX, BX
	SUBQ    $32, BX // last start of a full 32-element step
max4:
	CMPQ    CX, BX
	JGT     max1
	VMOVUPS (SI)(CX*4), Y2
	VMOVUPS 32(SI)(CX*4), Y3
	VMOVUPS 64(SI)(CX*4), Y7
	VMOVUPS 96(SI)(CX*4), Y8
	VMAXPS  Y2, Y0, Y0
	VMAXPS  Y3, Y4, Y4
	VMAXPS  Y7, Y5, Y5
	VMAXPS  Y8, Y6, Y6
	VCMPPS  $3, Y2, Y3, Y9
	VCMPPS  $3, Y7, Y8, Y10
	VORPS   Y9, Y10, Y9
	VORPS   Y9, Y1, Y1
	ADDQ    $32, CX
	JMP     max4
max1:
	CMPQ    CX, DX
	JGE     maxdone
	VMOVUPS (SI)(CX*4), Y2
	VMAXPS  Y2, Y0, Y0
	VCMPPS  $3, Y2, Y2, Y3
	VORPS   Y3, Y1, Y1
	ADDQ    $8, CX
	JMP     max1
maxdone:
	VMAXPS       Y4, Y0, Y0
	VMAXPS       Y6, Y5, Y5
	VMAXPS       Y5, Y0, Y0
	VEXTRACTF128 $1, Y0, X2
	VMAXPS       X2, X0, X0
	VPERMILPS    $0x4E, X0, X2 // swap the 64-bit halves
	VMAXPS       X2, X0, X0
	VPERMILPS    $0xB1, X0, X2 // swap adjacent lanes
	VMAXPS       X2, X0, X0
	VMOVSS       X0, mx+16(FP)
	VPTEST       Y1, Y1
	SETEQ        ok+20(FP)
	VZEROUPPER
	RET

// func scaleRowAVX2(dst *float64, n int, s float64)
//
// dst[i] = dst[i] * s for i in [0, n); n is a positive multiple of 4. The row
// element is the first source, as in Go's `dst[i] *= s`.
TEXT ·scaleRowAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), DX
	VBROADCASTSD s+16(FP), Y1
	XORQ         CX, CX
scaleloop:
	VMOVUPD (DI)(CX*8), Y0
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ    $4, CX
	CMPQ    CX, DX
	JLT     scaleloop
	VZEROUPPER
	RET

// func positivePartAVX2(dst, src *float32, n int)
//
// dst[i] = src[i] if src[i] > 0, else +0, for i in [0, n); n is a positive
// multiple of 8. VMAXPS with src as the first source returns the second (zero)
// unless src > 0, so NaN and -0 both become +0, like the Go loop it replaces.
TEXT ·positivePartAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), DX
	VXORPS Y1, Y1, Y1
	XORQ   CX, CX
posloop:
	VMOVUPS (SI)(CX*4), Y0
	VMAXPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(CX*4)
	ADDQ    $8, CX
	CMPQ    CX, DX
	JLT     posloop
	VZEROUPPER
	RET
