package compress

import (
	"encoding/binary"
	"math"

	"repro/internal/kernels"
	"repro/internal/mpi"
)

// Parallel encode: every codec's encode decomposes into element-wise passes
// (identity copy, int8 quantize, half-precision convert, top-k key build)
// plus at most one reduction whose result is independent of how the input is
// partitioned (int8's integer max-abs; top-k's selection runs serially over
// the already-built keys). Splitting those passes across the worker pool
// therefore yields payload bytes identical to the serial AppendCompress at
// every worker count — the byte-identity analogue of the compute path's
// bitwise-determinism rule, and the property the ParallelEncodeBytes suite
// pins. The one reduction that is NOT chunking-independent in float
// arithmetic (a float max would be, in the presence of NaN, order-sensitive)
// is exactly why int8MaxBits reduces integer bit patterns instead.

// encodeMinFloats is the bucket size below which AppendCompressParallel
// falls back to the serial encode: fork-join latency (and the one closure
// allocation per Run) would cost more than the parallel pass saves, and the
// serial path keeps small-bucket workloads allocation-free for the allocs
// gate.
const encodeMinFloats = 8192

// parallelEncode reports whether an n-float bucket's encode passes should be
// split across the worker pool.
func parallelEncode(n int) bool {
	return n >= encodeMinFloats && kernels.Workers() > 1
}

// encodeGrain is the minimum elements per worker range for the element-wise
// passes — small enough to balance, large enough that a range amortizes its
// share of the fork-join.
const encodeGrain = 4096

// maxChunks bounds the int8 per-chunk max-abs partials (a stack array, no
// allocation). The max is partition-independent, so the chunk count is free
// to be anything; 16 matches the pool's GradChunks cap.
const maxChunks = 16

// ParallelEncoder is implemented by codecs whose encode can be split across
// the worker pool. The contract is strict byte identity: for every input and
// every worker count, AppendCompressParallel appends exactly the bytes
// AppendCompress would.
type ParallelEncoder interface {
	Codec
	// AppendCompressParallel is AppendCompress with its element-wise passes
	// dispatched on the kernels pool. Safe to call from inside another pool
	// task (nested Runs execute inline on busy pools).
	AppendCompressParallel(dst []byte, src []float32) []byte
}

// AppendCompressAuto dispatches to the codec's parallel encode when it has
// one, else the serial path — the helper the Stream calls per bucket.
func AppendCompressAuto(c Codec, dst []byte, src []float32) []byte {
	if p, ok := c.(ParallelEncoder); ok {
		return p.AppendCompressParallel(dst, src)
	}
	return c.AppendCompress(dst, src)
}

// AppendCompressParallel implements ParallelEncoder: the copy is split into
// disjoint element ranges.
func (c Identity) AppendCompressParallel(dst []byte, src []float32) []byte {
	n := len(src)
	if !parallelEncode(n) {
		return c.AppendCompress(dst, src)
	}
	off := len(dst)
	dst = grow(dst, 4*n)
	b := dst[off:]
	kernels.RunRange(n, encodeGrain, func(lo, hi int) {
		mpi.EncodeFloat32s(b[4*lo:4*hi], src[lo:hi])
	})
	return dst
}

// AppendCompressParallel implements ParallelEncoder. The max-abs reduction
// runs over a fixed 16-way partition into per-chunk partials — but unlike
// the float folds elsewhere, even that is belt-and-braces: the reduction is
// an integer max over bit patterns, identical under ANY partition. The
// quantize pass is element-wise.
func (c Int8) AppendCompressParallel(dst []byte, src []float32) []byte {
	n := len(src)
	if !parallelEncode(n) {
		return c.AppendCompress(dst, src)
	}
	var part [maxChunks]uint32
	kernels.RunChunks(n, maxChunks, func(chunk, lo, hi int) {
		part[chunk] = int8MaxBits(src[lo:hi])
	})
	m := part[0]
	for _, p := range part[1:] {
		if p > m {
			m = p
		}
	}
	scale := int8Scale(m)
	off := len(dst)
	dst = grow(dst, 4+n)
	b := dst[off:]
	binary.LittleEndian.PutUint32(b, math.Float32bits(scale))
	q := b[4 : 4+n]
	kernels.RunRange(n, encodeGrain, func(lo, hi int) {
		int8Quantize(q[lo:hi], src[lo:hi], scale)
	})
	return dst
}

// AppendCompressParallel implements ParallelEncoder: the magnitude-key build
// (the pass profiling showed dominates top-k encode) is element-wise and
// splits freely; selection and payload write then run serially over the
// shared key array, identical to the serial finish.
func (t TopK) AppendCompressParallel(dst []byte, src []float32) []byte {
	n := len(src)
	if !parallelEncode(n) {
		return t.AppendCompress(dst, src)
	}
	k := t.keep(n)
	s := getTopkBuf(n, k)
	kernels.RunRange(n, encodeGrain, func(lo, hi int) {
		magKeys(s.keys[lo:hi], src[lo:hi], lo)
	})
	dst = t.appendSelected(dst, src, s, k)
	putTopkBuf(s)
	return dst
}

// AppendCompressParallel implements ParallelEncoder: per-element conversion,
// disjoint ranges.
func (c Float16) AppendCompressParallel(dst []byte, src []float32) []byte {
	n := len(src)
	if !parallelEncode(n) {
		return c.AppendCompress(dst, src)
	}
	off := len(dst)
	dst = grow(dst, 2*n)
	b := dst[off:]
	kernels.RunRange(n, encodeGrain, func(lo, hi int) {
		halfEncodeF16(b[2*lo:2*hi], src[lo:hi])
	})
	return dst
}

// AppendCompressParallel implements ParallelEncoder: per-element conversion,
// disjoint ranges.
func (c BFloat16) AppendCompressParallel(dst []byte, src []float32) []byte {
	n := len(src)
	if !parallelEncode(n) {
		return c.AppendCompress(dst, src)
	}
	off := len(dst)
	dst = grow(dst, 2*n)
	b := dst[off:]
	kernels.RunRange(n, encodeGrain, func(lo, hi int) {
		halfEncodeBF16(b[2*lo:2*hi], src[lo:hi])
	})
	return dst
}
