//go:build !amd64 || purego

package compress

// Without the assembly kernels the int8 loops are the scalar ones.

const useAVX2 = false

func int8MaxBitsSum(g, r []float32) uint32 { return int8MaxBitsSumGo(g, r) }

func int8QuantizeResidual(q []byte, next, g, r []float32, scale float32) {
	int8QuantizeResidualGo(q, next, g, r, scale)
}

func int8DecodeAdd(dst []float32, p []byte, scale float32) { int8DecodeAddGo(dst, p, scale) }
