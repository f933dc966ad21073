//go:build amd64 && !purego

package kernels

// hasAVX2 is the CPU probe's answer, taken once at start-up.
var hasAVX2 = cpuHasAVX2()

// HasAVX2 reports whether the assembly kernels of the packages above this
// one (the tensor GEMM microkernels, the compress int8 loops) may run: the
// CPU has AVX2 and the OS saves the YMM registers.
func HasAVX2() bool { return hasAVX2 }

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID OSXSAVE, XCR0 bits 1–2, and
// leaf-7 AVX2).
func cpuHasAVX2() bool
