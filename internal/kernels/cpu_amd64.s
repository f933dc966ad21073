//go:build amd64 && !purego

#include "textflag.h"

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
