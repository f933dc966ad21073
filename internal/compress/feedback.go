package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/kernels"
)

// Feedback maintains the error-feedback residual e_t across steps:
//
//	v_t     = g_t + e_t
//	payload = C(v_t)           (what the wire carries)
//	e_{t+1} = v_t - D(payload)
//
// so no gradient mass is lost to compression — it is merely delayed. This is
// the residual rule of 1-bit SGD (Seide et al., 2014) and EF-SGD
// (Karimireddy et al., 2019).
//
// The residual is double-buffered. Encode reads cur and stages the new
// residual in next as each bucket is compressed, in the codec's own encode
// pass (Codec.AppendFeedback): no corrected copy of the gradient, no decode
// of the own payload and no separate residual pass. Commit publishes next
// once the whole step has succeeded; a step that fails before its Commit
// leaves cur exactly as it was.
type Feedback struct {
	cur, next []float32
}

// NewFeedback creates a zeroed residual for gradients of length n.
func NewFeedback(n int) *Feedback {
	return &Feedback{cur: make([]float32, n), next: make([]float32, n)}
}

// Encode appends C(g + cur[off:off+len(g)]) to dst and stages
// next[off:off+len(g)] = (g + cur) - D(payload). Buckets covering disjoint
// ranges may be encoded concurrently.
func (f *Feedback) Encode(c Codec, dst []byte, off int, g []float32) []byte {
	hi := off + len(g)
	if off < 0 || hi > len(f.cur) {
		panic(fmt.Sprintf("compress: Feedback.Encode range [%d,%d) outside residual length %d", off, hi, len(f.cur)))
	}
	return c.AppendFeedback(dst, g, f.cur[off:hi:hi], f.next[off:hi:hi])
}

// Commit makes the residual staged by this step's Encodes current. Every
// element must have been encoded since the last Commit.
func (f *Feedback) Commit() { f.cur, f.next = f.next, f.cur }

// Residual exposes the current residual (read-only by convention; tests use
// it to assert the accounting identity).
func (f *Feedback) Residual() []float32 { return f.cur }

// AppendFeedback implements Codec: the payload is v's raw bits and the
// residual v - v (+0, or NaN where v is not finite).
func (Identity) AppendFeedback(dst []byte, g, cur, next []float32) []byte {
	return appendElementFeedback(dst, 4, g, cur, next, identityFeedback)
}

// appendElementFeedback runs an element-wise codec's fused pass — width
// payload bytes per element — over the bucket, split across the pool for
// large buckets.
func appendElementFeedback(dst []byte, width int, g, cur, next []float32, pass func(b []byte, g, cur, next []float32)) []byte {
	n := len(g)
	off := len(dst)
	dst = grow(dst, width*n)
	b := dst[off:]
	if parallelEncode(n) {
		kernels.RunRange(n, encodeGrain, func(lo, hi int) {
			pass(b[width*lo:width*hi], g[lo:hi], cur[lo:hi], next[lo:hi])
		})
	} else {
		pass(b, g, cur, next)
	}
	return dst
}

func identityFeedback(b []byte, g, cur, next []float32) {
	_ = b[:4*len(g)]
	cur, next = cur[:len(g)], next[:len(g)]
	for i, x := range g {
		v := x + cur[i]
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		next[i] = v - v
	}
}

// AppendFeedback implements Codec in two passes over g and cur: the max of
// |g+cur| as integer bits (chunked partials when split), then quantize and
// residual in one loop — both on the AVX2 kernels where the CPU has them.
func (Int8) AppendFeedback(dst []byte, g, cur, next []float32) []byte {
	n := len(g)
	par := parallelEncode(n)
	var m uint32
	if par {
		var part [maxChunks]uint32
		kernels.RunChunks(n, maxChunks, func(chunk, lo, hi int) {
			part[chunk] = int8MaxBitsSum(g[lo:hi], cur[lo:hi])
		})
		for _, p := range part {
			m = max(m, p)
		}
	} else {
		m = int8MaxBitsSum(g, cur)
	}
	scale := int8Scale(m)
	off := len(dst)
	dst = grow(dst, 4+n)
	b := dst[off:]
	binary.LittleEndian.PutUint32(b, math.Float32bits(scale))
	q := b[4 : 4+n]
	if par {
		kernels.RunRange(n, encodeGrain, func(lo, hi int) {
			int8QuantizeResidual(q[lo:hi], next[lo:hi], g[lo:hi], cur[lo:hi], scale)
		})
	} else {
		int8QuantizeResidual(q, next, g, cur, scale)
	}
	return dst
}

// int8MaxBitsSumGo is the scalar max of |g[i]+r[i]| as IEEE bits — the
// int8MaxBits reduction over the corrected values, without storing them.
func int8MaxBitsSumGo(g, r []float32) uint32 {
	r = r[:len(g)]
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(g); i += 4 {
		m0 = max(m0, math.Float32bits(g[i]+r[i])&^(1<<31))
		m1 = max(m1, math.Float32bits(g[i+1]+r[i+1])&^(1<<31))
		m2 = max(m2, math.Float32bits(g[i+2]+r[i+2])&^(1<<31))
		m3 = max(m3, math.Float32bits(g[i+3]+r[i+3])&^(1<<31))
	}
	for ; i < len(g); i++ {
		m0 = max(m0, math.Float32bits(g[i]+r[i])&^(1<<31))
	}
	return max(m0, m1, m2, m3)
}

// int8QuantizeResidualGo is the scalar fused quantize: q[i] is
// quantInt8(v, scale) for v = g[i]+r[i], and next[i] = v - decoded with
// decoded = float32(int8(q[i]))*scale, the value Decompress produces. The
// rounded, clamped quotient f is an integer in [-127, 127], so f*scale is
// that same product; the explicit conversion keeps the multiply rounded on
// its own (no fused multiply-subtract). Zero and non-finite scales write
// zero bytes, as int8Quantize does, and decode to 0*scale.
func int8QuantizeResidualGo(q []byte, next, g, r []float32, scale float32) {
	n := len(g)
	q, next, r = q[:n], next[:n], r[:n]
	if !finiteScale(scale) {
		var zero float32
		d := zero * scale
		for i, x := range g {
			q[i] = 0
			next[i] = (x + r[i]) - d
		}
		return
	}
	for i, x := range g {
		v := x + r[i]
		f := int8Round(v, scale)
		q[i] = byte(int8(f))
		next[i] = v - float32(f*scale)
	}
}

// AppendFeedback implements Codec: one per-element pass writes the half and
// the residual v - widen(half).
func (Float16) AppendFeedback(dst []byte, g, cur, next []float32) []byte {
	return appendElementFeedback(dst, 2, g, cur, next, f16Feedback)
}

// AppendFeedback implements Codec, as Float16's with the bfloat16 format.
func (BFloat16) AppendFeedback(dst []byte, g, cur, next []float32) []byte {
	return appendElementFeedback(dst, 2, g, cur, next, bf16Feedback)
}

func f16Feedback(b []byte, g, cur, next []float32) {
	_ = b[:2*len(g)]
	cur, next = cur[:len(g)], next[:len(g)]
	for i, x := range g {
		v := x + cur[i]
		h := f32ToF16(v)
		binary.LittleEndian.PutUint16(b[2*i:], h)
		next[i] = v - f16ToF32(h)
	}
}

func bf16Feedback(b []byte, g, cur, next []float32) {
	_ = b[:2*len(g)]
	cur, next = cur[:len(g)], next[:len(g)]
	for i, x := range g {
		v := x + cur[i]
		h := f32ToBF16(v)
		binary.LittleEndian.PutUint16(b[2*i:], h)
		next[i] = v - bf16ToF32(h)
	}
}

// AppendFeedback implements Codec: v is staged in next (alongside the
// selection keys), the payload is selected from it, and then the kept
// entries become v - v. A dropped entry decodes to +0 and v - (+0) is v
// itself, since v, the result of an add, is never a signaling NaN.
func (t TopK) AppendFeedback(dst []byte, g, cur, next []float32) []byte {
	n := len(g)
	k := t.keep(n)
	s := getTopkBuf(n, k)
	if parallelEncode(n) {
		kernels.RunRange(n, encodeGrain, func(lo, hi int) {
			topkStage(s.keys[lo:hi], next[lo:hi], g[lo:hi], cur[lo:hi], lo)
		})
	} else {
		topkStage(s.keys, next, g, cur, 0)
	}
	dst = t.appendSelected(dst, next, s, k)
	for _, j := range s.kept[:k] {
		next[j] -= next[j]
	}
	putTopkBuf(s)
	return dst
}

// topkStage writes v = g + cur into next and its selection key, with the
// element indices offset by base.
func topkStage(keys []uint64, next, g, cur []float32, base int) {
	_ = keys[:len(g)]
	cur, next = cur[:len(g)], next[:len(g)]
	for i, x := range g {
		v := x + cur[i]
		next[i] = v
		keys[i] = magKey(v, base+i)
	}
}
