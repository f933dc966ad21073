//go:build amd64 && !purego

#include "textflag.h"

// The int8 codec's AVX2 loops. Each handles n elements, n a multiple of 8;
// the Go wrappers in int8_amd64.go run the tail on the scalar loops. Every
// float operation is one the scalar code performs, in its operand order and
// with its rounding: a sum is g+r with g as the first source, a product is
// rounded (VMULPS) before it is added or subtracted — never VFMADD.

// The lane order VPACKSSDW/VPACKSSWB leave four packed vectors in: dword i
// of the result comes from dword permIdx[i] of the packed register.
DATA permIdx<>+0(SB)/4, $0
DATA permIdx<>+4(SB)/4, $4
DATA permIdx<>+8(SB)/4, $1
DATA permIdx<>+12(SB)/4, $5
DATA permIdx<>+16(SB)/4, $2
DATA permIdx<>+20(SB)/4, $6
DATA permIdx<>+24(SB)/4, $3
DATA permIdx<>+28(SB)/4, $7
GLOBL permIdx<>(SB), RODATA|NOPTR, $32

// MAXSUM folds |g+r| of 8 elements at off into acc as unsigned integer bits.
// Y15 holds the 0x7fffffff mask.
#define MAXSUM(off, tmp, acc) \
	VMOVUPS off(SI), tmp; \
	VADDPS  off(DI), tmp, tmp; \
	VPAND   Y15, tmp, tmp; \
	VPMAXUD tmp, acc, acc

// func int8MaxSumAVX2(grad, cur *float32, n int) uint32
TEXT ·int8MaxSumAVX2(SB), NOSPLIT, $0-28
	MOVQ grad+0(FP), SI
	MOVQ cur+8(FP), DI
	MOVQ n+16(FP), CX
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $1, Y15, Y15
	VPXOR    Y0, Y0, Y0
	VPXOR    Y1, Y1, Y1
	VPXOR    Y2, Y2, Y2
	VPXOR    Y3, Y3, Y3

maxloop32:
	CMPQ CX, $32
	JB   maxloop8
	MAXSUM(0, Y4, Y0)
	MAXSUM(32, Y5, Y1)
	MAXSUM(64, Y6, Y2)
	MAXSUM(96, Y7, Y3)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  maxloop32

maxloop8:
	CMPQ CX, $8
	JB   maxdone
	MAXSUM(0, Y4, Y0)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  maxloop8

maxdone:
	VPMAXUD      Y1, Y0, Y0
	VPMAXUD      Y3, Y2, Y2
	VPMAXUD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPMAXUD      X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, ret+24(FP)
	VZEROUPPER
	RET

// QUANT quantizes 8 elements at off: v = g+r, f = clamp(round(v/scale)),
// next = v - f*scale, and dst = int32(f). Y14 holds scale, Y13 the rounding
// magic 1.5×2²³, Y12 +127 and Y11 -127. f is never NaN, so the min/max
// clamp is the scalar compare-and-assign.
#define QUANT(off, v, f, dst) \
	VMOVUPS    off(SI), v; \
	VADDPS     off(DI), v, v; \
	VDIVPS     Y14, v, f; \
	VADDPS     Y13, f, f; \
	VSUBPS     Y13, f, f; \
	VMINPS     Y12, f, f; \
	VMAXPS     Y11, f, f; \
	VCVTTPS2DQ f, dst; \
	VMULPS     Y14, f, f; \
	VSUBPS     f, v, v; \
	VMOVUPS    v, off(R8)

// func int8QuantResidualAVX2(q *byte, next, grad, cur *float32, n int, scale float32)
TEXT ·int8QuantResidualAVX2(SB), NOSPLIT, $0-44
	MOVQ         q+0(FP), DX
	MOVQ         next+8(FP), R8
	MOVQ         grad+16(FP), SI
	MOVQ         cur+24(FP), DI
	MOVQ         n+32(FP), CX
	VBROADCASTSS scale+40(FP), Y14
	MOVL         $0x4b400000, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVL         $0x42fe0000, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	MOVL         $0xc2fe0000, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11
	VMOVDQU      permIdx<>(SB), Y10

quantloop32:
	CMPQ CX, $32
	JB   quantloop8
	QUANT(0, Y0, Y1, Y4)
	QUANT(32, Y0, Y1, Y5)
	QUANT(64, Y0, Y1, Y6)
	QUANT(96, Y0, Y1, Y7)
	VPACKSSDW Y5, Y4, Y4
	VPACKSSDW Y7, Y6, Y6
	VPACKSSWB Y6, Y4, Y4
	VPERMD    Y4, Y10, Y4
	VMOVDQU   Y4, (DX)
	ADDQ      $128, SI
	ADDQ      $128, DI
	ADDQ      $128, R8
	ADDQ      $32, DX
	SUBQ      $32, CX
	JMP       quantloop32

quantloop8:
	CMPQ CX, $8
	JB   quantdone
	QUANT(0, Y0, Y1, Y4)
	VEXTRACTI128 $1, Y4, X5
	VPACKSSDW    X5, X4, X4
	VPACKSSWB    X4, X4, X4
	MOVQ         X4, (DX)
	ADDQ         $32, SI
	ADDQ         $32, DI
	ADDQ         $32, R8
	ADDQ         $8, DX
	SUBQ         $8, CX
	JMP          quantloop8

quantdone:
	VZEROUPPER
	RET

// DECODEADD adds q*scale for 8 bytes of q at qoff into dst at doff, with
// dst as the add's first source. Y14 holds scale.
#define DECODEADD(qoff, doff, x, d) \
	VPMOVSXBD qoff(SI), x; \
	VCVTDQ2PS x, x; \
	VMULPS    Y14, x, x; \
	VMOVUPS   doff(DI), d; \
	VADDPS    x, d, d; \
	VMOVUPS   d, doff(DI)

// func int8DecodeAddAVX2(dst *float32, q *byte, n int, scale float32)
TEXT ·int8DecodeAddAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y14

decodeloop32:
	CMPQ CX, $32
	JB   decodeloop8
	DECODEADD(0, 0, Y0, Y1)
	DECODEADD(8, 32, Y2, Y3)
	DECODEADD(16, 64, Y4, Y5)
	DECODEADD(24, 96, Y6, Y7)
	ADDQ $32, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  decodeloop32

decodeloop8:
	CMPQ CX, $8
	JB   decodedone
	DECODEADD(0, 0, Y0, Y1)
	ADDQ $8, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  decodeloop8

decodedone:
	VZEROUPPER
	RET
