package nn

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// reluGrain is the smallest per-task range for elementwise activation
// kernels; below it fork-join overhead dominates the copy-compare loop.
const reluGrain = 1 << 14

// ReLU is the rectified linear activation, applied elementwise.
//
// Both passes are branch-free: Forward keeps a value's bits under an
// all-ones mask when it is positive and clears them otherwise, and Backward
// ANDs the gradient bits with the same mask. A float is positive exactly
// when bits-1 < 0x7f800000 (unsigned), so NaN and −0 give +0 and +Inf is
// kept — the same bits as the v > 0 select.
type ReLU struct {
	name string
	mask []uint8 // 0xff where input was > 0, else 0
	// The kernel closures are built once and read the current tensors
	// through these fields: a func literal handed to kernels.Run escapes,
	// so per-call closures would put an allocation per activation on the
	// training hot path (gated by benchtool allocs).
	fwdX, fwdOut  *tensor.Tensor
	bwdOut, bwdIn *tensor.Tensor
	fwdFn, bwdFn  func(lo, hi int)
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	if len(r.mask) < x.Len() {
		r.mask = make([]uint8, x.Len())
	}
	r.fwdX, r.fwdOut = x, out
	if r.fwdFn == nil {
		// Elementwise with disjoint writes: range boundaries cannot affect
		// bits.
		r.fwdFn = func(lo, hi int) {
			x := r.fwdX.Data[lo:hi]
			out := r.fwdOut.Data[lo:hi][:len(x)]
			mask := r.mask[lo:hi][:len(x)]
			for i, v := range x {
				b := math.Float32bits(v)
				// All ones iff b-1 < 0x7f800000: the int64 difference
				// is negative exactly then, and >>63 smears its sign.
				m := uint32((int64(b-1) - 0x7f800000) >> 63)
				out[i] = math.Float32frombits(b & m)
				mask[i] = uint8(m)
			}
		}
	}
	kernels.RunRange(x.Len(), reluGrain, r.fwdFn)
	r.fwdX, r.fwdOut = nil, nil
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape()...)
	r.bwdOut, r.bwdIn = gradOut, gradIn
	if r.bwdFn == nil {
		r.bwdFn = func(lo, hi int) {
			g := r.bwdOut.Data[lo:hi]
			gi := r.bwdIn.Data[lo:hi][:len(g)]
			mask := r.mask[lo:hi][:len(g)]
			for i, v := range g {
				// Sign-extend the 0/0xff mask byte to 32 bits.
				gi[i] = math.Float32frombits(math.Float32bits(v) & uint32(int32(int8(mask[i]))))
			}
		}
	}
	kernels.RunRange(gradOut.Len(), reluGrain, r.bwdFn)
	r.bwdOut, r.bwdIn = nil, nil
	return gradIn
}

// Dropout zeroes a fraction P of activations during training and rescales
// the survivors by 1/(1-P) (inverted dropout); it is the identity at
// inference. GoogLeNet uses dropout before its classifier.
type Dropout struct {
	name string
	P    float32
	rng  *tensor.RNG
	mask []float32
}

// NewDropout constructs a dropout layer with drop probability p.
func NewDropout(name string, p float32, rng *tensor.RNG) *Dropout {
	return &Dropout{name: name, P: p, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		// Identity at inference; mark mask nil so Backward passes through.
		d.mask = nil
		return x
	}
	out := tensor.New(x.Shape()...)
	if cap(d.mask) < x.Len() {
		d.mask = make([]float32, x.Len())
	}
	d.mask = d.mask[:x.Len()]
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float32() >= d.P {
			d.mask[i] = scale
			out.Data[i] = v * scale
		} else {
			d.mask[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return gradOut
	}
	gradIn := tensor.New(gradOut.Shape()...)
	for i, g := range gradOut.Data {
		gradIn.Data[i] = g * d.mask[i]
	}
	return gradIn
}
