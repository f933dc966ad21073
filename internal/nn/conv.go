package nn

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// convScratch is one batch chunk's private workspace: im2col/col2im column
// buffers plus partial weight/bias gradient accumulators. Chunks run
// concurrently on the kernels pool, each touching only its own scratch.
type convScratch struct {
	cols     []float32
	gradCols []float32
	dW       []float32
	dB       []float32
}

// Conv2D is a 2-D convolution over NCHW input, lowered to GEMM via im2col —
// the same lowering cuDNN's IMPLICIT_GEMM algorithm uses on the paper's P100
// GPUs. Weight layout is (outC, inC, kh, kw); bias is optional (the ResNet
// and GoogLeNetBN recipes run conv without bias when followed by BN).
//
// Forward and Backward parallelize across batch images on the shared
// kernels pool. Output activations and input gradients are written to
// disjoint per-image ranges (any schedule is bitwise-deterministic); weight
// and bias gradients accumulate into per-chunk partial buffers over the
// fixed kernels.GradChunks batch partition and are folded in chunk order —
// a pure function of the batch size, never of the worker count — so dW is
// bitwise identical whether the pool runs 1-wide or GOMAXPROCS-wide.
type Conv2D struct {
	name                     string
	InC, OutC                int
	KH, KW                   int
	StrideH, StrideW         int
	PadH, PadW               int
	Weight, Bias             *Param
	lastInput                *tensor.Tensor
	scratch                  []convScratch  // per-chunk workspaces, reused across steps
	gradIn                   *tensor.Tensor // layer-owned Backward output, reused across steps
	lastH, lastW, outH, outW int
	// colsHeld records that the last Forward ran one image per chunk, so
	// each chunk's cols still hold its image's columns for Backward.
	colsHeld bool
}

// ConvOpts selects optional conv features.
type ConvOpts struct {
	// Bias adds a per-output-channel bias term.
	Bias bool
}

// NewConv2D constructs a convolution with Kaiming-normal initialized weights.
func NewConv2D(name string, inC, outC, kh, kw, strideH, strideW, padH, padW int, opts ConvOpts, rng *tensor.RNG) *Conv2D {
	w := tensor.New(outC, inC, kh, kw)
	rng.FillKaiming(w, inC*kh*kw)
	c := &Conv2D{
		name: name, InC: inC, OutC: outC,
		KH: kh, KW: kw, StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
		Weight: &Param{Name: name + ".weight", Value: w, Grad: tensor.New(outC, inC, kh, kw)},
	}
	if opts.Bias {
		c.Bias = &Param{Name: name + ".bias", Value: tensor.New(outC), Grad: tensor.New(outC), NoWeightDecay: true}
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// ensureScratch sizes the per-chunk workspaces: cols for every chunk, and —
// when backward is set — gradCols plus the partial dW/dB accumulators.
func (c *Conv2D) ensureScratch(chunks, colFloats int, backward bool) {
	if len(c.scratch) < chunks {
		c.scratch = append(c.scratch, make([]convScratch, chunks-len(c.scratch))...)
	}
	for ci := 0; ci < chunks; ci++ {
		s := &c.scratch[ci]
		if len(s.cols) < colFloats {
			s.cols = make([]float32, colFloats)
		}
		if !backward {
			continue
		}
		if len(s.gradCols) < colFloats {
			s.gradCols = make([]float32, colFloats)
		}
		if wLen := c.Weight.Value.Len(); len(s.dW) < wLen {
			s.dW = make([]float32, wLen)
		}
		if c.Bias != nil && len(s.dB) < c.OutC {
			s.dB = make([]float32, c.OutC)
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s forward shape %v, want [N %d H W]", c.name, x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	c.lastInput = x
	c.lastH, c.lastW = h, w
	c.outH = tensor.ConvOutSize(h, c.KH, c.StrideH, c.PadH)
	c.outW = tensor.ConvOutSize(w, c.KW, c.StrideW, c.PadW)
	colRows := c.InC * c.KH * c.KW
	colN := c.outH * c.outW
	chunks := kernels.GradChunks(n)
	c.ensureScratch(chunks, colRows*colN, false)
	c.colsHeld = chunks == n
	out := tensor.New(n, c.OutC, c.outH, c.outW)
	inPlane := c.InC * h * w
	outPlane := c.OutC * colN
	kernels.RunChunks(n, chunks, func(ci, lo, hi int) {
		cols := c.scratch[ci].cols[:colRows*colN]
		for i := lo; i < hi; i++ {
			src := x.Data[i*inPlane : (i+1)*inPlane]
			tensor.Im2Col(src, c.InC, h, w, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW, cols)
			dst := out.Data[i*outPlane : (i+1)*outPlane]
			tensor.Gemm(false, false, c.OutC, colN, colRows, 1, c.Weight.Value.Data, cols, 0, dst)
			if c.Bias != nil {
				for oc := 0; oc < c.OutC; oc++ {
					b := c.Bias.Value.Data[oc]
					row := dst[oc*colN : (oc+1)*colN]
					for j := range row {
						row[j] += b
					}
				}
			}
		}
	})
	return out
}

// Backward implements Layer. The returned gradient tensor is owned by the
// layer and reused on the next Backward call; callers must consume it before
// then (the per-step training loop does).
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic("nn: " + c.name + " Backward before Forward")
	}
	n, h, w := x.Dim(0), c.lastH, c.lastW
	colRows := c.InC * c.KH * c.KW
	colN := c.outH * c.outW
	inPlane := c.InC * h * w
	outPlane := c.OutC * colN
	if c.gradIn == nil || c.gradIn.NumDims() != 4 || c.gradIn.Dim(0) != n ||
		c.gradIn.Dim(1) != c.InC || c.gradIn.Dim(2) != h || c.gradIn.Dim(3) != w {
		c.gradIn = tensor.New(n, c.InC, h, w)
	}
	gradIn := c.gradIn
	chunks := kernels.GradChunks(n)
	c.ensureScratch(chunks, colRows*colN, true)
	wLen := c.Weight.Value.Len()
	kernels.RunChunks(n, chunks, func(ci, lo, hi int) {
		s := &c.scratch[ci]
		cols := s.cols[:colRows*colN]
		gradCols := s.gradCols[:colRows*colN]
		dW := s.dW[:wLen]
		for i := range dW {
			dW[i] = 0
		}
		var dB []float32
		if c.Bias != nil {
			dB = s.dB[:c.OutC]
			for i := range dB {
				dB[i] = 0
			}
		}
		for i := lo; i < hi; i++ {
			g := gradOut.Data[i*outPlane : (i+1)*outPlane]

			// dW += g · colsᵀ into the chunk's partial buffer. A chunk of
			// one image still holds that image's columns from Forward; a
			// chunk of several recomputes them per image (saves memory over
			// caching every image's column matrix, the standard recompute
			// trade-off).
			if !c.colsHeld {
				src := x.Data[i*inPlane : (i+1)*inPlane]
				tensor.Im2Col(src, c.InC, h, w, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW, cols)
			}
			tensor.Gemm(false, true, c.OutC, colRows, colN, 1, g, cols, 1, dW)

			// dCols = Wᵀ · g, then scatter back to the input gradient. The
			// reused gradIn must present Col2Im a zeroed adjoint target.
			tensor.Gemm(true, false, colRows, colN, c.OutC, 1, c.Weight.Value.Data, g, 0, gradCols)
			gi := gradIn.Data[i*inPlane : (i+1)*inPlane]
			for j := range gi {
				gi[j] = 0
			}
			tensor.Col2Im(gradCols, c.InC, h, w, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW, gi)

			if dB != nil {
				for oc := 0; oc < c.OutC; oc++ {
					var sum float32
					row := g[oc*colN : (oc+1)*colN]
					for _, v := range row {
						sum += v
					}
					dB[oc] += sum
				}
			}
		}
	})
	// Fold the partials in chunk order — ascending chunks cover ascending
	// image ranges, so the fold is the fixed-image-order left fold no matter
	// how many workers computed the partials. Parallel over weight elements:
	// each element's chunk-order sum is independent.
	kernels.RunRange(wLen, 4096, func(lo, hi int) {
		wg := c.Weight.Grad.Data
		for ci := 0; ci < chunks; ci++ {
			dW := c.scratch[ci].dW
			for j := lo; j < hi; j++ {
				wg[j] += dW[j]
			}
		}
	})
	if c.Bias != nil {
		bg := c.Bias.Grad.Data
		for ci := 0; ci < chunks; ci++ {
			for j, v := range c.scratch[ci].dB[:c.OutC] {
				bg[j] += v
			}
		}
	}
	return gradIn
}
