package compress

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kernels"
)

// Test values that stress the int8 loops: signed zeros, the smallest and
// largest denormals, infinities, NaNs with and without payload, exact
// half-integer ties and the ±127 clamp edge. Sums g+r never pair two NaNs:
// which NaN an add returns then depends on the operand order the compiler
// picks for the scalar loop.
var (
	nan1     = math.Float32frombits(0x7fc00001)
	nan2     = math.Float32frombits(0xffe00000)
	denormLo = math.Float32frombits(1)
	denormHi = math.Float32frombits(0x007fffff)
	inf      = float32(math.Inf(1))
)

// finiteSpecials never make a sum NaN or a quotient by a finite scale NaN.
var finiteSpecials = []float32{0, float32(math.Copysign(0, -1)), denormLo, -denormLo, denormHi, -denormHi,
	0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5, 127, -127, 127.5, -127.5, 128, -1000, 1e30, -3e38}

// specialVec draws n values: mostly random in [-2, 2], with a special value
// at roughly every third element. withNaN and withInf admit the NaNs and
// +Inf (never -Inf, so g+r cannot be Inf-Inf).
func specialVec(rng *rand.Rand, n int, withNaN, withInf bool) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch r := rng.Intn(9); {
		case r < 6:
			v[i] = rng.Float32()*4 - 2
		case r < 8 || !(withNaN || withInf):
			v[i] = finiteSpecials[rng.Intn(len(finiteSpecials))]
		case withNaN && (!withInf || rng.Intn(2) == 0):
			v[i] = []float32{nan1, nan2}[rng.Intn(2)]
		default:
			v[i] = inf
		}
	}
	return v
}

// unaligned returns a copy of v starting off floats into its backing array.
func unaligned(v []float32, off int) []float32 {
	b := make([]float32, off+len(v))
	copy(b[off:], v)
	return b[off:]
}

// noDoubleNaN clears r[i] wherever g[i] is also NaN.
func noDoubleNaN(g, r []float32) {
	for i := range g {
		if g[i] != g[i] && r[i] != r[i] {
			r[i] = 1
		}
	}
}

func bitsEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, len(a) == len(b)
}

// kernelLengths covers every tail length around the 8- and 32-wide loops and
// a full bucket either side of 16384.
func kernelLengths() []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 16383, 16384, 16385)
}

// TestInt8AVX2KernelsMatchScalar sweeps each int8 AVX2 kernel against its
// scalar loop, bit for bit: every length 0–40 and 16383–16385, unaligned
// starts, and the special values above, for finite, zero, denormal, NaN and
// infinite scales.
func TestInt8AVX2KernelsMatchScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(71))
	scales := []float32{1, 0.5, 1.0 / 127, 0.013, 3e-3, 7e20, denormLo, denormHi, 0, nan1, inf}
	for _, n := range kernelLengths() {
		for off := 0; off < 4; off++ {
			for _, scale := range scales {
				finite := finiteScale(scale)
				// A finite scale only ever meets non-NaN values: the max that
				// produced it would otherwise be NaN.
				g := unaligned(specialVec(rng, n, !finite, true), off)
				r := unaligned(specialVec(rng, n, !finite, false), (off+1)%4)
				noDoubleNaN(g, r)
				name := fmt.Sprintf("n=%d off=%d scale=%v", n, off, scale)

				if got, want := int8MaxBitsSum(g, r), int8MaxBitsSumGo(g, r); got != want {
					t.Fatalf("%s: max bits %#x, scalar %#x", name, got, want)
				}

				q, wantQ := make([]byte, n+off)[off:], make([]byte, n)
				next := unaligned(make([]float32, n), (off+2)%4)
				wantNext := make([]float32, n)
				int8QuantizeResidual(q, next, g, r, scale)
				int8QuantizeResidualGo(wantQ, wantNext, g, r, scale)
				if !bytes.Equal(q, wantQ) {
					t.Fatalf("%s: quantized bytes differ from the scalar loop", name)
				}
				if i, ok := bitsEqual(next, wantNext); !ok {
					t.Fatalf("%s: residual[%d] = %#x, scalar %#x", name, i, math.Float32bits(next[i]), math.Float32bits(wantNext[i]))
				}

				// The decode reads every byte value, -128 included. A NaN
				// accumulator meets only a scale whose products are never
				// NaN.
				for i := range q {
					q[i] = byte(rng.Intn(256))
				}
				dst := unaligned(specialVec(rng, n, finite, true), (off+3)%4)
				want := append([]float32(nil), dst...)
				int8DecodeAdd(dst, q, scale)
				int8DecodeAddGo(want, q, scale)
				if i, ok := bitsEqual(dst, want); !ok {
					t.Fatalf("%s: decode-add[%d] = %#x, scalar %#x", name, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// feedbackReference is the unfused error-feedback sequence: correct the
// gradient, compress it, decode the payload, subtract.
func feedbackReference(c Codec, g, cur []float32) ([]byte, []float32) {
	v := make([]float32, len(g))
	for i := range g {
		v[i] = g[i] + cur[i]
	}
	payload := c.AppendCompress(nil, v)
	d := make([]float32, len(g))
	if err := c.Decompress(d, payload); err != nil {
		panic(err)
	}
	next := make([]float32, len(g))
	for i := range v {
		next[i] = v[i] - d[i]
	}
	return payload, next
}

// TestFeedbackEncodeMatchesReference: for every codec, bucket size (either
// side of the parallel threshold), payload class, residual state and worker
// width, Feedback.Encode emits the payload bytes and stages the residual
// bits of the unfused sequence.
func TestFeedbackEncodeMatchesReference(t *testing.T) {
	codecs := []Codec{Identity{}, Int8{}, TopK{Ratio: 0.1}, TopK{Ratio: 1}, Float16{}, BFloat16{}}
	widths := []int{1, 2, runtime.GOMAXPROCS(0) + 3}
	sizes := []int{1, 7, 8, 33, 1000, encodeMinFloats, 3*encodeGrain + 11}
	rng := rand.New(rand.NewSource(97))
	residual := func(n, mode int) []float32 {
		switch mode {
		case 0:
			return make([]float32, n)
		case 1: // -0 everywhere: -0 gradients then sum to -0
			r := make([]float32, n)
			for i := range r {
				r[i] = float32(math.Copysign(0, -1))
			}
			return r
		case 2:
			return fillBucket(rng, n, 4)
		default:
			return specialVec(rng, n, false, false)
		}
	}
	for _, c := range codecs {
		for _, n := range sizes {
			for mode := 0; mode <= 5; mode++ {
				var g []float32
				if mode == 5 {
					g = specialVec(rng, n, true, true)
				} else {
					g = fillBucket(rng, n, mode)
				}
				if mode == 1 {
					g[0] = float32(math.Copysign(0, -1))
				}
				for rmode := 0; rmode <= 3; rmode++ {
					cur := residual(n, rmode)
					wantPayload, wantNext := feedbackReference(c, g, cur)
					for _, w := range widths {
						// The bucket sits at an offset inside a longer residual.
						const off = 3
						f := NewFeedback(off + n + 5)
						copy(f.cur[off:], cur)
						prev := kernels.SetWorkers(w)
						payload := f.Encode(c, []byte{0xAB}, off, g)
						kernels.SetWorkers(prev)
						name := fmt.Sprintf("%s n=%d mode=%d rmode=%d width=%d", c.Name(), n, mode, rmode, w)
						if payload[0] != 0xAB || !bytes.Equal(payload[1:], wantPayload) {
							t.Fatalf("%s: payload differs from AppendCompress of the corrected gradient", name)
						}
						if i, ok := bitsEqual(f.next[off:off+n], wantNext); !ok {
							t.Fatalf("%s: residual[%d] = %#x, reference %#x", name, i, math.Float32bits(f.next[off+i]), math.Float32bits(wantNext[i]))
						}
						if i, ok := bitsEqual(f.cur[off:off+n], cur); !ok {
							t.Fatalf("%s: Encode changed the current residual at %d before Commit", name, i)
						}
					}
				}
			}
		}
	}
}

// TestFeedbackEncodeAllocationFree: a steady-state encode into sized scratch
// allocates nothing on the serial path.
func TestFeedbackEncodeAllocationFree(t *testing.T) {
	prev := kernels.SetWorkers(1)
	defer kernels.SetWorkers(prev)
	const n = 4096
	g := randVec(n, 5)
	for _, c := range []Codec{Identity{}, Int8{}, TopK{Ratio: 0.1}, Float16{}, BFloat16{}} {
		f := NewFeedback(n)
		scratch := make([]byte, 0, c.MaxCompressedSize(n))
		f.Encode(c, scratch, 0, g) // warm the top-k scratch freelist
		if a := testing.AllocsPerRun(20, func() { f.Encode(c, scratch, 0, g) }); a != 0 {
			t.Fatalf("%s: %v allocations per Encode", c.Name(), a)
		}
	}
}
