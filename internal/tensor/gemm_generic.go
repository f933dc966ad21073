//go:build !amd64 || purego

package tensor

// useAVX2 is false without the assembly kernels, so routePacked sends every
// product to the streaming kernels and the stubs below are never reached.
const useAVX2 = false

func microAxpy(k int, ap, b []float32, ldb int, c []float32, ldc int) {
	panic("tensor: packed GEMM without the AVX2 kernels")
}

func microDot(k int, a []float32, rs, ps int, bp []float32, acc *[gemmMR * gemmNR]float32) {
	panic("tensor: packed GEMM without the AVX2 kernels")
}
