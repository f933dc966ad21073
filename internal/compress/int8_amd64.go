//go:build amd64 && !purego

package compress

import "repro/internal/kernels"

// useAVX2 routes the int8 loops through the kernels in int8_amd64.s. They
// handle nonzero finite scales; the rest take the scalar special cases.
var useAVX2 = kernels.HasAVX2()

//go:noescape
func int8MaxSumAVX2(grad, cur *float32, n int) uint32

//go:noescape
func int8QuantResidualAVX2(q *byte, next, grad, cur *float32, n int, scale float32)

//go:noescape
func int8DecodeAddAVX2(dst *float32, q *byte, n int, scale float32)

// int8MaxBitsSum returns the max over i of |g[i]+r[i]| as IEEE bits.
func int8MaxBitsSum(g, r []float32) uint32 {
	n := len(g)
	r = r[:n]
	var m uint32
	if k := n &^ 7; useAVX2 && k > 0 {
		m = int8MaxSumAVX2(&g[0], &r[0], k)
		g, r = g[k:], r[k:]
	}
	return max(m, int8MaxBitsSumGo(g, r))
}

// int8QuantizeResidual fills q and next as int8QuantizeResidualGo does.
func int8QuantizeResidual(q []byte, next, g, r []float32, scale float32) {
	n := len(g)
	q, next, r = q[:n], next[:n], r[:n]
	if k := n &^ 7; useAVX2 && k > 0 && finiteScale(scale) {
		int8QuantResidualAVX2(&q[0], &next[0], &g[0], &r[0], k, scale)
		q, next, g, r = q[k:], next[k:], g[k:], r[k:]
	}
	int8QuantizeResidualGo(q, next, g, r, scale)
}

// int8DecodeAdd adds float32(int8(p[i]))*scale into dst[i].
func int8DecodeAdd(dst []float32, p []byte, scale float32) {
	n := len(dst)
	p = p[:n]
	if k := n &^ 7; useAVX2 && k > 0 && finiteScale(scale) {
		int8DecodeAddAVX2(&dst[0], &p[0], k, scale)
		dst, p = dst[k:], p[k:]
	}
	int8DecodeAddGo(dst, p, scale)
}
