package nn

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// layerRun captures everything a layer computes in one train step: forward
// output, input gradient, and every parameter gradient.
type layerRun struct {
	out, gradIn *tensor.Tensor
	paramGrads  [][]float32
}

// runLayer builds a fresh layer (identical weights via the seeded RNG), runs
// forward + backward once, and snapshots the results. A fresh layer per call
// keeps accumulated grads and reused scratch from leaking between widths.
func runLayer(build func(rng *tensor.RNG) Layer, x, gradOut *tensor.Tensor) layerRun {
	rng := tensor.NewRNG(42)
	l := build(rng)
	out := l.Forward(x, true)
	gradIn := l.Backward(gradOut)
	r := layerRun{
		out:    out.Clone(),
		gradIn: gradIn.Clone(),
	}
	for _, p := range l.Params() {
		r.paramGrads = append(r.paramGrads, append([]float32(nil), p.Grad.Data...))
	}
	return r
}

func bitsEqual(t *testing.T, label string, width int, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s width %d: length %d, want %d", label, width, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s width %d: elem %d = %v, want %v (bits %08x vs %08x)",
				label, width, i, got[i], want[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestLayersBitwiseAcrossWorkerCounts: every parallelized layer must produce
// bitwise-identical activations, input gradients, and parameter gradients
// whether the kernels pool runs 1-wide, 2-wide, or wider than GOMAXPROCS.
// This is the repo-wide determinism invariant extended to the compute path:
// worker count is scheduling noise, never arithmetic.
func TestLayersBitwiseAcrossWorkerCounts(t *testing.T) {
	const n, c, h, w = 6, 8, 13, 11
	rng := tensor.NewRNG(7)
	x := tensor.New(n, c, h, w)
	rng.FillNormal(x, 0, 1)

	layers := []struct {
		name  string
		build func(r *tensor.RNG) Layer
		// outShape of the layer's forward pass, for sizing gradOut.
		outShape []int
	}{
		{"conv", func(r *tensor.RNG) Layer {
			return NewConv2D("conv", c, 16, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: true}, r)
		}, []int{n, 16, h, w}},
		{"conv-stride-nobias", func(r *tensor.RNG) Layer {
			return NewConv2D("conv2", c, 4, 5, 5, 2, 2, 2, 2, ConvOpts{}, r)
		}, []int{n, 4, (h+2*2-5)/2 + 1, (w+2*2-5)/2 + 1}},
		{"batchnorm", func(r *tensor.RNG) Layer {
			return NewBatchNorm2D("bn", c, r)
		}, []int{n, c, h, w}},
		{"lrn", func(r *tensor.RNG) Layer {
			return NewLRN("lrn", 5)
		}, []int{n, c, h, w}},
		{"maxpool", func(r *tensor.RNG) Layer {
			return NewMaxPool2D("mp", 3, 3, 2, 2, 1, 1)
		}, []int{n, c, (h+2-3)/2 + 1, (w+2-3)/2 + 1}},
		{"avgpool", func(r *tensor.RNG) Layer {
			return NewAvgPool2D("ap", 2, 2, 2, 2, 0, 0)
		}, []int{n, c, (h-2)/2 + 1, (w-2)/2 + 1}},
		{"globalavgpool", func(r *tensor.RNG) Layer {
			return NewGlobalAvgPool("gap")
		}, []int{n, c, 1, 1}},
		{"relu", func(r *tensor.RNG) Layer {
			return NewReLU("relu")
		}, []int{n, c, h, w}},
	}

	widths := []int{1, 2, runtime.GOMAXPROCS(0) + 3}
	for _, tc := range layers {
		gradOut := tensor.New(tc.outShape...)
		tensor.NewRNG(99).FillNormal(gradOut, 0, 1)

		prev := kernels.SetWorkers(1)
		ref := runLayer(tc.build, x, gradOut)
		kernels.SetWorkers(prev)

		for _, width := range widths[1:] {
			prev := kernels.SetWorkers(width)
			got := runLayer(tc.build, x, gradOut)
			kernels.SetWorkers(prev)
			bitsEqual(t, tc.name+"/out", width, got.out.Data, ref.out.Data)
			bitsEqual(t, tc.name+"/gradIn", width, got.gradIn.Data, ref.gradIn.Data)
			if len(got.paramGrads) != len(ref.paramGrads) {
				t.Fatalf("%s width %d: %d param grads, want %d", tc.name, width, len(got.paramGrads), len(ref.paramGrads))
			}
			for i := range got.paramGrads {
				bitsEqual(t, tc.name+"/paramGrad", width, got.paramGrads[i], ref.paramGrads[i])
			}
		}
	}
}

// TestConvBackwardScratchReuse: the gradient tensor Backward returns is
// layer-owned and reused; a second step with the same shape must not
// allocate a new one, and a shape change must.
func TestConvBackwardScratchReuse(t *testing.T) {
	rng := tensor.NewRNG(3)
	conv := NewConv2D("conv", 2, 3, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: true}, rng)
	x := tensor.New(4, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	out := conv.Forward(x, true)
	g1 := conv.Backward(out)
	out2 := conv.Forward(x, true)
	g2 := conv.Backward(out2)
	if &g1.Data[0] != &g2.Data[0] {
		t.Fatal("same-shape Backward did not reuse the layer-owned gradient buffer")
	}
	x2 := tensor.New(2, 2, 6, 6)
	rng.FillNormal(x2, 0, 1)
	out3 := conv.Forward(x2, true)
	g3 := conv.Backward(out3)
	if g3.Dim(0) != 2 || g3.Dim(2) != 6 {
		t.Fatalf("reshaped Backward returned %v", g3.Shape())
	}
}

// convReference computes conv's input, weight and bias gradients for input x
// and output gradient gradOut from the public tensor.Im2Col and tensor.Gemm,
// in the order Conv2D.Backward promises: per image within each
// kernels.GradChunks chunk into a zeroed partial, partials folded in chunk
// order into zeroed gradients.
func convReference(c *Conv2D, x, gradOut *tensor.Tensor) (dX, dW, dB []float32) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, c.KH, c.StrideH, c.PadH)
	ow := tensor.ConvOutSize(w, c.KW, c.StrideW, c.PadW)
	colRows, colN := c.InC*c.KH*c.KW, oh*ow
	inPlane, outPlane := c.InC*h*w, c.OutC*colN
	chunks := kernels.GradChunks(n)
	bounds := make([][2]int, chunks)
	kernels.RunChunks(n, chunks, func(ci, lo, hi int) { bounds[ci] = [2]int{lo, hi} })

	dX = make([]float32, n*inPlane)
	dW = make([]float32, c.Weight.Value.Len())
	dB = make([]float32, c.OutC)
	cols := make([]float32, colRows*colN)
	gradCols := make([]float32, colRows*colN)
	for _, b := range bounds {
		pW := make([]float32, len(dW))
		pB := make([]float32, len(dB))
		for i := b[0]; i < b[1]; i++ {
			g := gradOut.Data[i*outPlane : (i+1)*outPlane]
			tensor.Im2Col(x.Data[i*inPlane:(i+1)*inPlane], c.InC, h, w, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW, cols)
			tensor.Gemm(false, true, c.OutC, colRows, colN, 1, g, cols, 1, pW)
			tensor.Gemm(true, false, colRows, colN, c.OutC, 1, c.Weight.Value.Data, g, 0, gradCols)
			tensor.Col2Im(gradCols, c.InC, h, w, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW, dX[i*inPlane:(i+1)*inPlane])
			for oc := range pB {
				var sum float32
				for _, v := range g[oc*colN : (oc+1)*colN] {
					sum += v
				}
				pB[oc] += sum
			}
		}
		for j, v := range pW {
			dW[j] += v
		}
		for j, v := range pB {
			dB[j] += v
		}
	}
	return dX, dW, dB
}

// TestConvBackwardReusesForwardColumns: Backward reuses Forward's columns
// when every chunk holds one image (batch 8) and recomputes them when a
// chunk spans several (batch 20); both must equal the reference bit for bit.
// The interleaved Forward orders catch a stale record of which columns the
// scratch holds.
func TestConvBackwardReusesForwardColumns(t *testing.T) {
	const inC, h, w = 3, 7, 6
	rng := tensor.NewRNG(11)
	x8, x20 := tensor.New(8, inC, h, w), tensor.New(20, inC, h, w)
	rng.FillNormal(x8, 0, 1)
	rng.FillNormal(x20, 0, 1)
	geoms := []struct {
		name  string
		build func() *Conv2D
	}{
		{"3x3-s1-bias", func() *Conv2D {
			return NewConv2D("conv", inC, 16, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: true}, tensor.NewRNG(5))
		}},
		{"3x3-s2", func() *Conv2D {
			return NewConv2D("conv", inC, 8, 3, 3, 2, 2, 1, 1, ConvOpts{}, tensor.NewRNG(6))
		}},
	}
	orders := []struct {
		name     string
		forwards []*tensor.Tensor // the last one is back-propagated
	}{
		{"8", []*tensor.Tensor{x8}},
		{"20", []*tensor.Tensor{x20}},
		{"8,20", []*tensor.Tensor{x8, x20}},
		{"20,8", []*tensor.Tensor{x20, x8}},
	}
	for _, geom := range geoms {
		for _, order := range orders {
			conv := geom.build()
			var out *tensor.Tensor
			for _, x := range order.forwards {
				out = conv.Forward(x, true)
			}
			x := order.forwards[len(order.forwards)-1]
			gradOut := tensor.New(out.Shape()...)
			tensor.NewRNG(99).FillNormal(gradOut, 0, 1)
			dX := conv.Backward(gradOut)

			wantX, wantW, wantB := convReference(conv, x, gradOut)
			label := geom.name + "/forwards " + order.name
			width := kernels.Workers()
			bitsEqual(t, label+"/dX", width, dX.Data, wantX)
			bitsEqual(t, label+"/dW", width, conv.Weight.Grad.Data, wantW)
			if conv.Bias != nil {
				bitsEqual(t, label+"/dB", width, conv.Bias.Grad.Data, wantB)
			}
		}
	}
}
