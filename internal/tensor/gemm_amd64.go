//go:build amd64 && !purego

package tensor

import "repro/internal/kernels"

// useAVX2 selects the assembly kernels in gemm_amd64.s, set once from the
// shared CPU probe.
var useAVX2 = kernels.HasAVX2()

//go:noescape
func axpy4x16AVX2(k int, ap, b *float32, ldb int, c *float32, ldc int)

//go:noescape
func dot4x16AVX2(k int, a *float32, rs, ps int, bp *float32, acc *[gemmMR * gemmNR]float32)

// microAxpy runs the axpy-order kernel: for ascending p < k, each row r of
// the 4×16 C tile at c (row stride ldc) adds s·op(B)[p, 0:16] with the
// packed s = ap[4p+r], skipped when s == ±0. ap is the k-major A panel
// (alpha folded in), b points at op(B)[p0, j0] with row stride ldb. The
// tile has already had its beta prologue. k ≥ 1; the bounds checks cover
// every element the assembly reads or writes.
func microAxpy(k int, ap, b []float32, ldb int, c []float32, ldc int) {
	_ = ap[gemmMR*k-1]
	_ = b[(k-1)*ldb+gemmNR-1]
	_ = c[(gemmMR-1)*ldc+gemmNR-1]
	axpy4x16AVX2(k, &ap[0], &b[0], ldb, &c[0], ldc)
}

// microDot runs the dot-order kernel: acc[16r+j] adds a[r*rs+p*ps]·
// bp[16p+j] for ascending p < k, continuing from the sums already there.
// a is op(A) at the panel's first row and chunk's first step, read in
// place; bp is the k-major packed B chunk. k ≥ 1.
func microDot(k int, a []float32, rs, ps int, bp []float32, acc *[gemmMR * gemmNR]float32) {
	_ = a[(gemmMR-1)*rs+(k-1)*ps]
	_ = bp[gemmNR*k-1]
	dot4x16AVX2(k, &a[0], rs, ps, &bp[0], acc)
}
