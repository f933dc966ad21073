//go:build amd64 && !purego

#include "textflag.h"

// The 4×16 GEMM microkernels. Row r of the C tile lives in two YMM
// accumulators, Y(2r) for columns 0–7 and Y(2r+1) for columns 8–15. Each
// step multiplies with VMULPS and adds with VADDPS — never VFMADD — so every
// element sees the same two roundings per step as Go's scalar s*b then +=.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no

	// Leaf 1 ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no

	// Leaf 7 subleaf 0 EBX: AVX2 (bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX
	JZ   no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// AXPY_ROW adds s·B[p, 0:16] to row r when the packed s = ap[4p+r] is not
// ±0 (its bits with the sign cleared are nonzero, so a NaN is never
// skipped). Y8/Y9 hold B[p, 0:16]; Y10 the broadcast s; Y11/Y12 products.
#define AXPY_ROW(off, acc0, acc1, skip) \
	MOVL         off(SI), AX; \
	ANDL         $0x7fffffff, AX; \
	JZ           skip; \
	VBROADCASTSS off(SI), Y10; \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, acc0, acc0; \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y12, acc1, acc1; \
skip:

// func axpy4x16AVX2(k int, ap, b *float32, ldb int, c *float32, ldc int)
TEXT ·axpy4x16AVX2(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R8
	SHLQ $2, R8
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R9
	SHLQ $2, R9
	LEAQ (DX)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12

	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS (R10), Y2
	VMOVUPS 32(R10), Y3
	VMOVUPS (R11), Y4
	VMOVUPS 32(R11), Y5
	VMOVUPS (R12), Y6
	VMOVUPS 32(R12), Y7

	TESTQ CX, CX
	JZ    axpydone

axpyloop:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	AXPY_ROW(0, Y0, Y1, axpyrow1)
	AXPY_ROW(4, Y2, Y3, axpyrow2)
	AXPY_ROW(8, Y4, Y5, axpyrow3)
	AXPY_ROW(12, Y6, Y7, axpynext)
	ADDQ $16, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  axpyloop

axpydone:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, 32(R10)
	VMOVUPS Y4, (R11)
	VMOVUPS Y5, 32(R11)
	VMOVUPS Y6, (R12)
	VMOVUPS Y7, 32(R12)
	VZEROUPPER
	RET

// DOT_ROW adds the A value at addr times bp[16p : 16p+16] to row r's sums.
#define DOT_ROW(addr, acc0, acc1) \
	VBROADCASTSS addr, Y10; \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, acc0, acc0; \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y12, acc1, acc1

// func dot4x16AVX2(k int, a *float32, rs, ps int, bp *float32, acc *[64]float32)
//
// Row r's A value at step p is a[r*rs + p*ps], read in place. The sums
// continue from acc (the caller zeroes it before the first depth chunk, so
// they start at +0 like the serial kernel's `var s float32`) and go back
// to acc at the end.
TEXT ·dot4x16AVX2(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ rs+16(FP), R8
	SHLQ $2, R8
	MOVQ ps+24(FP), R9
	SHLQ $2, R9
	MOVQ bp+32(FP), DI
	MOVQ acc+40(FP), DX
	LEAQ (R8)(R8*2), R10

	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS 64(DX), Y2
	VMOVUPS 96(DX), Y3
	VMOVUPS 128(DX), Y4
	VMOVUPS 160(DX), Y5
	VMOVUPS 192(DX), Y6
	VMOVUPS 224(DX), Y7

	TESTQ CX, CX
	JZ    dotdone

dotloop:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	DOT_ROW((SI), Y0, Y1)
	DOT_ROW((SI)(R8*1), Y2, Y3)
	DOT_ROW((SI)(R8*2), Y4, Y5)
	DOT_ROW((SI)(R10*1), Y6, Y7)
	ADDQ R9, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  dotloop

dotdone:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	VZEROUPPER
	RET
