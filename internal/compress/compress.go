// Package compress implements gradient-compression codecs for the
// communication-efficient allreduce path: identity (no compression, the
// accounting baseline), int8 linear quantization with a per-bucket scale,
// top-k sparsification, and the float16/bfloat16 half-precision wire
// formats. Codecs operate on one bucket of the flattened
// gradient at a time (internal/allreduce.BucketedAllReduce drives them) and
// are deterministic: the same input always yields the same payload, so every
// rank decodes identical values and model replicas stay bitwise in sync.
//
// Lossy codecs pair with error-feedback residual accumulation (Feedback):
// the compression error of step t is added back into the gradient of step
// t+1, which restores convergence for aggressive sparsification. Each codec
// computes that residual inside its encode (Codec.AppendFeedback), in the
// same pass that writes the payload.
package compress

import (
	"fmt"
)

// Codec encodes a float32 vector into a byte payload and back. AppendCompress
// and Decompress must round-trip lengths exactly: a payload produced from n
// floats decompresses into a length-n destination.
//
// Both directions operate on caller-provided memory: AppendCompress appends
// to a scratch slice (pass one with MaxCompressedSize capacity for an
// allocation-free encode) and Decompress overwrites a caller buffer — the
// contract that lets the bucketed allreduce recycle payload buffers across
// steps instead of allocating its full communication volume every step.
type Codec interface {
	// Name identifies the codec in flags, stats, and logs.
	Name() string
	// MaxCompressedSize bounds the payload size for an n-float bucket.
	MaxCompressedSize(n int) int
	// AppendCompress appends the encoding of src to dst and returns the
	// extended slice (append semantics: dst may be nil).
	AppendCompress(dst []byte, src []float32) []byte
	// Decompress decodes payload into dst, overwriting every element. It
	// errors if the payload does not describe exactly len(dst) floats.
	Decompress(dst []float32, payload []byte) error
	// DecompressAdd decodes payload and accumulates it into dst
	// (dst[i] += decoded[i]) in ascending element order — the fused fast
	// path Stream.reduce uses to fold each sender's payload straight into
	// the bucket sum without materializing a temp. For every element the
	// decoded value and the FP add are the same operation Decompress-then-
	// add would perform, so the accumulated sum is bitwise identical, with
	// one documented exception: sparse codecs may skip the += 0 at dropped
	// indices, which can only matter when dst holds -0 there (-0 + +0 = +0);
	// bucket accumulators start at +0 and can never become -0 by adding
	// payloads, so the fused path is bitwise-safe in the reduction.
	DecompressAdd(dst []float32, payload []byte) error
	// AppendFeedback is AppendCompress with the error-feedback residual
	// fused in (Feedback.Encode drives it): it appends the encoding of
	// v = g + cur to dst and writes next[i] = v[i] - decoded[i], where
	// decoded is exactly what Decompress produces from the appended
	// payload — so the payload bytes equal AppendCompress(v) and the
	// residual equals the decode-then-subtract one bit for bit, without
	// materializing v or the decode. g, cur and next have equal lengths and
	// next aliases neither input. Large buckets split across the worker
	// pool like AppendCompressParallel, with identical results.
	AppendFeedback(dst []byte, g, cur, next []float32) []byte
}

// Encode compresses src into a fresh payload — the convenience form for
// tests and cold paths; hot paths pass pooled scratch to AppendCompress.
func Encode(c Codec, src []float32) []byte {
	return c.AppendCompress(nil, src)
}

// Config selects and tunes a codec; the zero value means "uncompressed
// legacy path" (no bucketed allreduce at all). Codec "none" runs the
// bucketed path with the identity codec, so byte accounting is comparable
// against the lossy codecs.
type Config struct {
	// Codec is one of "", "none", "int8", "topk", "f16", "bf16".
	Codec string
	// TopKRatio is the fraction of elements the topk codec keeps per bucket
	// (default 0.1, clamped to (0, 1]).
	TopKRatio float64
	// BucketFloats is the bucketed-allreduce bucket size in float32 elements
	// (default 16384 = 64 KiB uncompressed).
	BucketFloats int
	// ErrorFeedback enables residual accumulation for lossy codecs (see
	// Lossy); it has no effect on the identity codec.
	ErrorFeedback bool
}

// Enabled reports whether the bucketed/compressed allreduce path is active.
func (c Config) Enabled() bool { return c.Codec != "" }

// New constructs the configured codec.
func New(cfg Config) (Codec, error) {
	switch cfg.Codec {
	case "", "none", "identity":
		return Identity{}, nil
	case "int8":
		return Int8{}, nil
	case "f16", "float16":
		return Float16{}, nil
	case "bf16", "bfloat16":
		return BFloat16{}, nil
	case "topk":
		r := cfg.TopKRatio
		if r <= 0 {
			r = 0.1
		}
		if r > 1 {
			r = 1
		}
		return TopK{Ratio: r}, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q", cfg.Codec)
	}
}

// Lossy reports whether c can change the values it carries. Error feedback
// only pays off for lossy codecs: through the identity codec the residual
// is always zero.
func Lossy(c Codec) bool {
	_, identity := c.(Identity)
	return !identity
}
