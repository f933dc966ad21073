package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kernels"
)

// packedSlice fills test operands with adversarial values for the packed
// kernels: exact zeros (the axpy skip path), negative zeros (the
// 0 + alpha*s store rule), and mixed-sign magnitudes spanning several
// binades (so accumulation order differences cannot cancel out).
func packedSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = float32(math.Copysign(0, -1))
		case 2:
			s[i] = (rng.Float32()*2 - 1) * 1e-4
		default:
			s[i] = (rng.Float32()*2 - 1) * float32(math.Pow(2, float64(rng.Intn(8)-4)))
		}
	}
	return s
}

// TestGemmPackedBitwiseSweep pins the packed microkernel path against the
// serial reference over a randomized shape sweep — odd dimensions, m < mr,
// n < nr, k ∈ {0, 1}, alpha/beta edge cases — bitwise, at worker widths
// 1/2/GOMAXPROCS+3, for all four transpose cases. minPackedFlops is forced
// to 0 so every shape, however small, routes through packing, the
// microkernels, and the edge-strip fallback.
func TestGemmPackedBitwiseSweep(t *testing.T) {
	prevMin := minPackedFlops
	minPackedFlops = 1
	defer func() { minPackedFlops = prevMin }()

	widths := []int{1, 2, runtime.GOMAXPROCS(0) + 3}
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},   // everything is edge strip
		{3, 3, 3},   // below mr and nr: pure fallback
		{4, 4, 1},   // exactly one micro-tile, k=1
		{5, 7, 9},   // odd everything: packed core + both edge strips
		{4, 4, 0},   // k = 0: pure beta pass (declines packing)
		{2, 37, 11}, // m < mr
		{23, 2, 13}, // n < nr
		{8, 8, 64},  // aligned, deep k
		{13, 29, 7},
		{31, 17, 25},
		{9, 65, 3},
	}
	rng := rand.New(rand.NewSource(11))
	for s := 0; s < 8; s++ { // extra randomized shapes
		shapes = append(shapes, struct{ m, n, k int }{rng.Intn(40) + 1, rng.Intn(40) + 1, rng.Intn(40) + 1})
	}
	cases := []struct{ alpha, beta float32 }{
		{1, 0}, {1, 1}, {-0.5, 0.25}, {0.75, -1}, {0, 0.5},
	}
	for _, sh := range shapes {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				for _, ab := range cases {
					a := packedSlice(rng, sh.m*sh.k)
					b := packedSlice(rng, sh.k*sh.n)
					c0 := packedSlice(rng, sh.m*sh.n)

					want := append([]float32(nil), c0...)
					gemmSerial(transA, transB, sh.m, sh.n, sh.k, ab.alpha, a, b, ab.beta, want)

					for _, w := range widths {
						prev := kernels.SetWorkers(w)
						got := append([]float32(nil), c0...)
						Gemm(transA, transB, sh.m, sh.n, sh.k, ab.alpha, a, b, ab.beta, got)
						kernels.SetWorkers(prev)
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("m%d n%d k%d tA%v tB%v alpha%v beta%v width %d: elem %d = %v (bits %x), want %v (bits %x)",
									sh.m, sh.n, sh.k, transA, transB, ab.alpha, ab.beta, w, i,
									got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmPackedLargeRouting checks the real threshold routing: a product
// over minPackedFlops goes through the packed path (observable bitwise —
// the result must still match the serial reference exactly at several
// worker widths, which would fail if packing or tiling broke the operation
// order on a shape big enough to engage every level).
func TestGemmPackedLargeRouting(t *testing.T) {
	m, n, k := 96, 160, 144 // 2.2 MFLOP-pairs ≥ minPackedFlops
	if m*n*k < minPackedFlops {
		t.Fatalf("shape %dx%dx%d below minPackedFlops %d: test no longer exercises the packed path", m, n, k, minPackedFlops)
	}
	rng := rand.New(rand.NewSource(13))
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			a := packedSlice(rng, m*k)
			b := packedSlice(rng, k*n)
			c0 := packedSlice(rng, m*n)

			want := append([]float32(nil), c0...)
			gemmSerial(transA, transB, m, n, k, 0.5, a, b, 0.25, want)

			for _, w := range []int{1, runtime.GOMAXPROCS(0) + 3} {
				prev := kernels.SetWorkers(w)
				got := append([]float32(nil), c0...)
				Gemm(transA, transB, m, n, k, 0.5, a, b, 0.25, got)
				kernels.SetWorkers(prev)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("tA%v tB%v width %d: elem %d = %v, want %v", transA, transB, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// forcePacked routes every product with a whole 4×16 tile through the
// packed path (no flop threshold, no depth gate) until the returned restore
// runs.
func forcePacked() (restore func()) {
	prevFlops, prevK := minPackedFlops, minPackedK
	minPackedFlops, minPackedK = 0, 0
	return func() { minPackedFlops, minPackedK = prevFlops, prevK }
}

// checkGemmBitwise runs Gemm on ±0-laden operands at every worker width
// and fails unless C matches the serial reference bit for bit.
func checkGemmBitwise(t *testing.T, rng *rand.Rand, transA, transB bool, m, n, k int, alpha, beta float32, widths []int) {
	t.Helper()
	a := packedSlice(rng, m*k)
	b := packedSlice(rng, k*n)
	c0 := packedSlice(rng, m*n)
	want := append([]float32(nil), c0...)
	gemmSerial(transA, transB, m, n, k, alpha, a, b, beta, want)
	got := make([]float32, len(c0))
	for _, w := range widths {
		prev := kernels.SetWorkers(w)
		copy(got, c0)
		Gemm(transA, transB, m, n, k, alpha, a, b, beta, got)
		kernels.SetWorkers(prev)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("m%d n%d k%d tA%v tB%v alpha%v beta%v width %d: elem %d = %v (bits %x), want %v (bits %x)",
					m, n, k, transA, transB, alpha, beta, w, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// convGemmShapes returns the m×n×k of the three GEMMs every conv layer of
// TinyResNet (ResNet-8 on the benchmark's 16×16 crops) and SmallCNN (8×8
// and 16×16 inputs) lowers to, per nn.Conv2D: forward W·cols, the weight
// gradient dW += g·colsᵀ, and the column gradient dCols = Wᵀ·g.
func convGemmShapes() []struct{ m, n, k int } {
	convs := []struct{ inC, outC, kern, stride, pad, size int }{
		{3, 16, 3, 1, 1, 16},  // tinyresnet.stem.conv
		{16, 16, 3, 1, 1, 16}, // tinyresnet.s1.b0.{a,b}
		{16, 32, 3, 2, 1, 16}, // tinyresnet.s2.b0.a
		{32, 32, 3, 1, 1, 8},  // tinyresnet.s2.b0.b
		{16, 32, 1, 2, 0, 16}, // tinyresnet.s2.b0.down
		{32, 64, 3, 2, 1, 8},  // tinyresnet.s3.b0.a
		{64, 64, 3, 1, 1, 4},  // tinyresnet.s3.b0.b
		{32, 64, 1, 2, 0, 8},  // tinyresnet.s3.b0.down
		{3, 8, 3, 1, 1, 8},    // smallcnn.c1, 8×8 input
		{8, 16, 3, 1, 1, 4},   // smallcnn.c2, 8×8 input
		{3, 8, 3, 1, 1, 16},   // smallcnn.c1, 16×16 input
		{8, 16, 3, 1, 1, 8},   // smallcnn.c2, 16×16 input
	}
	var shapes []struct{ m, n, k int }
	for _, cv := range convs {
		out := ConvOutSize(cv.size, cv.kern, cv.stride, cv.pad)
		colRows, colN := cv.inC*cv.kern*cv.kern, out*out
		shapes = append(shapes,
			struct{ m, n, k int }{cv.outC, colN, colRows}, // forward
			struct{ m, n, k int }{cv.outC, colRows, colN}, // dW
			struct{ m, n, k int }{colRows, colN, cv.outC}, // dCols
		)
	}
	return shapes
}

// packedKernelNote logs, on a build or host without the AVX2 kernels, that
// a packed-path test checks only the streaming kernels there.
func packedKernelNote(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 kernels on this build/host: every product streams")
	}
}

// TestGemmPackedConvShapesBitwise pins the microkernels against the serial
// reference on every conv-lowered shape of TinyResNet and SmallCNN, in all
// four transpose cases and with beta 0, 1 and neither — bitwise, at worker
// widths 1 and GOMAXPROCS+3, with the packed routing forced so every shape
// with a whole tile runs the kernels.
func TestGemmPackedConvShapesBitwise(t *testing.T) {
	packedKernelNote(t)
	defer forcePacked()()
	widths := []int{1, runtime.GOMAXPROCS(0) + 3}
	rng := rand.New(rand.NewSource(17))
	for _, sh := range convGemmShapes() {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				for _, beta := range []float32{0, 1, -0.75} {
					checkGemmBitwise(t, rng, transA, transB, sh.m, sh.n, sh.k, 1, beta, widths)
				}
			}
		}
	}
}

// TestGemmPackedTileEdgesBitwise walks the edges of the 4×16 tile and the
// k ≥ 16 depth gate — n one short of, at, and one past one and two strips;
// k around 16 — under both the production routing and forced packing, with
// TestGemmPackedBitwiseSweep's alpha/beta edge cases. The forced run adds
// that sweep's shapes which hold a whole tile, and the depth-chunk and
// panel-block edges: k around gemmKC and past two chunks, m past one block
// of gemmMB panels.
func TestGemmPackedTileEdgesBitwise(t *testing.T) {
	packedKernelNote(t)
	widths := []int{1, 2}
	cases := []struct{ alpha, beta float32 }{
		{1, 0}, {1, 1}, {-0.5, 0.25}, {0.75, -1}, {0, 0.5}, {-0.5, 1}, {0.75, 0.25},
	}
	var shapes []struct{ m, n, k int }
	for _, m := range []int{3, 4, 9} {
		for _, n := range []int{15, 16, 17, 31, 33} {
			for _, k := range []int{15, 16, 17} {
				shapes = append(shapes, struct{ m, n, k int }{m, n, k})
			}
		}
	}
	deep := []struct{ m, n, k int }{
		{13, 29, 7}, {31, 17, 25}, {9, 65, 3}, // the sweep's whole-tile shapes
		{gemmMR, gemmNR, gemmKC - 1},
		{gemmMR, gemmNR, gemmKC},
		{gemmMR, gemmNR, gemmKC + 1},
		{gemmMR*gemmMB + 5, 33, gemmKC},
		{gemmMR*gemmMB + 5, 33, 2*gemmKC + 3},
	}
	for _, route := range []string{"default", "forced"} {
		t.Run(route, func(t *testing.T) {
			run := shapes
			if route == "forced" {
				defer forcePacked()()
				run = append(append([]struct{ m, n, k int }(nil), shapes...), deep...)
			}
			rng := rand.New(rand.NewSource(19))
			for _, sh := range run {
				for _, transA := range []bool{false, true} {
					for _, transB := range []bool{false, true} {
						for _, ab := range cases {
							checkGemmBitwise(t, rng, transA, transB, sh.m, sh.n, sh.k, ab.alpha, ab.beta, widths)
						}
					}
				}
			}
		})
	}
}

// TestGemmPackedRouting pins which products take the packed path: with the
// AVX2 kernels any whole 4×16 tile at depth k ≥ 16 (so every TinyResNet
// conv GEMM, but not the MLP's batch-2 products), without them none.
func TestGemmPackedRouting(t *testing.T) {
	cases := []struct {
		m, n, k int
		packed  bool // with the AVX2 kernels
	}{
		{16, 256, 144, true}, // tinyresnet s1 conv forward
		{16, 144, 256, true}, // its weight gradient
		{144, 256, 16, true}, // its column gradient
		{4, 16, 16, true},    // one tile, minimum depth
		{96, 160, 144, true}, // above 2²¹ flops
		{3, 256, 144, false}, // no whole tile row
		{16, 15, 144, false}, // no whole tile column
		{16, 256, 15, false}, // under the depth gate
		{384, 768, 2, false}, // mlp Linear dW at batch 2
		{2, 768, 384, false}, // mlp Linear forward at batch 2
	}
	for _, c := range cases {
		want := c.packed && useAVX2
		if got := routePacked(c.m, c.n, c.k); got != want {
			t.Errorf("avx2=%v: routePacked(%d, %d, %d) = %v, want %v", useAVX2, c.m, c.n, c.k, got, want)
		}
	}
}

// TestGemmPackedZeroAllocs: once warm, a packed conv GEMM allocates nothing
// — chunks packed on the stack and a pooled call record with its tile task
// bound once — for each of the three conv roles. It runs at one worker:
// wider, the kernels pool recycles its own job descriptors only after the
// helpers drain, which AllocsPerRun's GOMAXPROCS 1 starves.
func TestGemmPackedZeroAllocs(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this build/host: no packed path")
	}
	defer forcePacked()()
	defer kernels.SetWorkers(kernels.SetWorkers(1))
	const m, n, k = 16, 256, 144 // tinyresnet s1 conv forward
	roles := []struct {
		transA, transB bool
		m, n, k        int
	}{
		{false, false, m, n, k}, // forward W·cols
		{false, true, m, k, n},  // dW += g·colsᵀ
		{true, false, k, n, m},  // dCols = Wᵀ·g
	}
	rng := rand.New(rand.NewSource(23))
	for _, r := range roles {
		if !routePacked(r.m, r.n, r.k) {
			t.Fatalf("%dx%dx%d does not route packed", r.m, r.n, r.k)
		}
		a := packedSlice(rng, r.m*r.k)
		b := packedSlice(rng, r.k*r.n)
		c := make([]float32, r.m*r.n)
		gemm := func() { Gemm(r.transA, r.transB, r.m, r.n, r.k, 1, a, b, 1, c) }
		gemm() // warm the call-record pool
		if allocs := testing.AllocsPerRun(20, gemm); allocs != 0 {
			t.Errorf("tA%v tB%v %dx%dx%d: %v allocs per Gemm, want 0", r.transA, r.transB, r.m, r.n, r.k, allocs)
		}
	}
}
