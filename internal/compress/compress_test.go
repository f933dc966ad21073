package compress

import (
	"math"
	"math/rand"
	"testing"
)

func randVec(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64()) * float32(math.Pow(10, rng.Float64()*4-2))
	}
	return v
}

func TestIdentityRoundTripExact(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		src := randVec(n, int64(n)+1)
		c := Identity{}
		payload := Encode(c, src)
		if len(payload) != 4*n {
			t.Fatalf("n=%d: payload %d bytes, want %d", n, len(payload), 4*n)
		}
		dst := make([]float32, n)
		if err := c.Decompress(dst, payload); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, dst[i], src[i])
			}
		}
	}
}

// Int8's worst-case round-trip error is half a quantization step:
// max|v|/254 per element.
func TestInt8RoundTripBound(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		src := randVec(2048, seed)
		var maxAbs float64
		for _, v := range src {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		c := Int8{}
		payload := Encode(c, src)
		if len(payload) != 4+len(src) {
			t.Fatalf("payload %d bytes, want %d", len(payload), 4+len(src))
		}
		dst := make([]float32, len(src))
		if err := c.Decompress(dst, payload); err != nil {
			t.Fatal(err)
		}
		bound := maxAbs/254 + 1e-7*maxAbs
		for i := range src {
			if err := math.Abs(float64(dst[i] - src[i])); err > bound {
				t.Fatalf("seed %d: element %d error %v exceeds bound %v", seed, i, err, bound)
			}
		}
	}
}

func TestInt8ZeroAndConstantBuckets(t *testing.T) {
	c := Int8{}
	zero := make([]float32, 16)
	dst := make([]float32, 16)
	if err := c.Decompress(dst, Encode(c, zero)); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("zero bucket decoded dst[%d] = %v", i, v)
		}
	}
	konst := make([]float32, 16)
	for i := range konst {
		konst[i] = -3.5
	}
	if err := c.Decompress(dst, Encode(c, konst)); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		// A constant bucket quantizes to exactly ±127 ticks: lossless.
		if math.Abs(float64(v+3.5)) > 1e-6 {
			t.Fatalf("constant bucket decoded dst[%d] = %v, want -3.5", i, v)
		}
	}
}

// Non-finite gradient elements must surface as divergence (NaN after the
// round trip), exactly as the uncompressed path would propagate them —
// never be silently replaced by a plausible quantized value.
func TestInt8NonFinitePropagatesAsNaN(t *testing.T) {
	c := Int8{}
	for _, poison := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		src := []float32{1, -2, poison, 0.5}
		dst := make([]float32, len(src))
		if err := c.Decompress(dst, Encode(c, src)); err != nil {
			t.Fatal(err)
		}
		for i, v := range dst {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("poison %v: dst[%d] = %v, want NaN (divergence must stay visible)", poison, i, v)
			}
		}
	}
}

func TestTopKKeepsLargestExactly(t *testing.T) {
	src := []float32{0.1, -5, 0.2, 3, -0.05, 4, 0, -2}
	c := TopK{Ratio: 0.5} // keep 4 of 8
	payload := Encode(c, src)
	if want := 4 + 8*4; len(payload) != want {
		t.Fatalf("payload %d bytes, want %d", len(payload), want)
	}
	dst := make([]float32, len(src))
	if err := c.Decompress(dst, payload); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, -5, 0, 3, 0, 4, 0, -2}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func TestTopKKeepsAtLeastOneAndAtMostN(t *testing.T) {
	c := TopK{Ratio: 0.001}
	src := []float32{1, 2, 3}
	dst := make([]float32, 3)
	if err := c.Decompress(dst, Encode(c, src)); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 3 || dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("ratio<1/n should keep exactly the largest element, got %v", dst)
	}
	full := TopK{Ratio: 1}
	if err := full.Decompress(dst, Encode(full, src)); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("ratio=1 must be lossless, got %v", dst)
		}
	}
}

func TestTopKDeterministicOnTies(t *testing.T) {
	src := []float32{1, -1, 1, -1}
	c := TopK{Ratio: 0.5}
	p1 := Encode(c, src)
	p2 := Encode(c, append([]float32(nil), src...))
	if string(p1) != string(p2) {
		t.Fatal("topk payloads differ across identical inputs")
	}
	dst := make([]float32, 4)
	if err := c.Decompress(dst, p1); err != nil {
		t.Fatal(err)
	}
	// Ties break toward the lower index.
	want := []float32{1, -1, 0, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func TestDecompressRejectsBadPayloads(t *testing.T) {
	dst := make([]float32, 4)
	if err := (Identity{}).Decompress(dst, make([]byte, 15)); err == nil {
		t.Fatal("identity: wrong size should error")
	}
	if err := (Int8{}).Decompress(dst, make([]byte, 7)); err == nil {
		t.Fatal("int8: wrong size should error")
	}
	if err := (TopK{Ratio: 0.5}).Decompress(dst, []byte{1, 2}); err == nil {
		t.Fatal("topk: truncated header should error")
	}
	// k larger than the bucket.
	big := Encode(TopK{Ratio: 1}, make([]float32, 8))
	if err := (TopK{Ratio: 1}).Decompress(dst, big); err == nil {
		t.Fatal("topk: k > len(dst) should error")
	}
}

// A topk payload whose last index is out of range must be rejected before
// any entry lands: DecompressAdd leaves the accumulator exactly as it was,
// and Decompress does not zero it.
func TestTopKBadIndexLeavesDstUntouched(t *testing.T) {
	src := []float32{0, 3, 0, -5, 0, 7, 0, 0}
	payload := Encode(TopK{Ratio: 0.375}, src) // keeps indices 1, 3, 5
	last := 4 + 4*2                            // the third (last) index slot
	payload[last] = 8                          // == len(dst): out of range
	for _, decode := range []struct {
		name string
		fn   func([]float32, []byte) error
	}{
		{"DecompressAdd", TopK{Ratio: 0.375}.DecompressAdd},
		{"Decompress", TopK{Ratio: 0.375}.Decompress},
	} {
		dst := []float32{1, 2, 3, 4, 5, 6, 7, 8}
		want := append([]float32(nil), dst...)
		if err := decode.fn(dst, payload); err == nil {
			t.Fatalf("%s: out-of-range index should error", decode.name)
		}
		for i := range dst {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: dst[%d] = %v after a rejected payload, want %v", decode.name, i, dst[i], want[i])
			}
		}
	}
}

// The error-feedback identity: after Correct/Update, residual + sent ==
// gradient + previous residual, so across steps the cumulative transmitted
// mass equals the cumulative gradient mass exactly.
func TestFeedbackAccountingIdentity(t *testing.T) {
	const n = 512
	f := NewFeedback(n)
	codec := TopK{Ratio: 0.05}
	var cumGrad, cumSent []float64
	cumGrad = make([]float64, n)
	cumSent = make([]float64, n)
	g := make([]float32, n)
	sent := make([]float32, n)
	for step := 0; step < 20; step++ {
		copy(g, randVec(n, int64(step)))
		for i, v := range g {
			cumGrad[i] += float64(v)
		}
		f.Correct(g)
		corrected := append([]float32(nil), g...)
		if err := codec.Decompress(sent, Encode(codec, g)); err != nil {
			t.Fatal(err)
		}
		f.Update(corrected, sent)
		for i, v := range sent {
			cumSent[i] += float64(v)
		}
		// Invariant: cumSent + residual == cumGrad (up to float32 rounding).
		for i, r := range f.Residual() {
			if diff := math.Abs(cumSent[i] + float64(r) - cumGrad[i]); diff > 1e-3 {
				t.Fatalf("step %d: element %d leaks %v gradient mass", step, i, diff)
			}
		}
	}
}

func TestNewSelectsCodec(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		name string
	}{
		{Config{}, "none"},
		{Config{Codec: "none"}, "none"},
		{Config{Codec: "identity"}, "none"},
		{Config{Codec: "int8"}, "int8"},
		{Config{Codec: "topk", TopKRatio: 0.2}, "topk"},
		{Config{Codec: "f16"}, "f16"},
		{Config{Codec: "float16"}, "f16"},
		{Config{Codec: "bf16"}, "bf16"},
		{Config{Codec: "bfloat16"}, "bf16"},
	} {
		c, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc.cfg, err)
		}
		if c.Name() != tc.name {
			t.Fatalf("%+v: codec %q, want %q", tc.cfg, c.Name(), tc.name)
		}
	}
	if _, err := New(Config{Codec: "zstd"}); err == nil {
		t.Fatal("unknown codec should error")
	}
	if !(Config{Codec: "none"}).Enabled() || (Config{}).Enabled() {
		t.Fatal("Enabled: codec \"none\" is enabled (bucketed path), \"\" is not")
	}
	// Ratio clamping: out-of-range ratios fall back to sane values.
	c, err := New(Config{Codec: "topk", TopKRatio: 7})
	if err != nil {
		t.Fatal(err)
	}
	if c.(TopK).Ratio != 1 {
		t.Fatalf("ratio 7 should clamp to 1, got %v", c.(TopK).Ratio)
	}
	c, _ = New(Config{Codec: "topk"})
	if c.(TopK).Ratio != 0.1 {
		t.Fatalf("default topk ratio = %v, want 0.1", c.(TopK).Ratio)
	}
}

// AppendCompress into recycled scratch must produce payloads identical to a
// fresh encode — stale scratch contents must never leak into a payload (the
// pooled hot path hands codecs dirty buffers by design).
func TestAppendCompressScratchReuse(t *testing.T) {
	codecs := []Codec{Identity{}, Int8{}, TopK{Ratio: 0.25}, Float16{}, BFloat16{}}
	for _, c := range codecs {
		scratch := make([]byte, 0, c.MaxCompressedSize(512))
		// Poison the scratch capacity so stale bytes are detectable.
		for i := 0; i < cap(scratch); i++ {
			scratch = append(scratch, 0xAB)
		}
		scratch = scratch[:0]
		for round := 0; round < 3; round++ {
			src := randVec(512, int64(round))
			fresh := Encode(c, src)
			got := c.AppendCompress(scratch[:0], src)
			if len(got) > cap(scratch) {
				t.Fatalf("%s: payload %d bytes exceeds MaxCompressedSize %d", c.Name(), len(got), cap(scratch))
			}
			if string(got) != string(fresh) {
				t.Fatalf("%s round %d: scratch-reuse payload differs from fresh encode", c.Name(), round)
			}
		}
	}
}

// MaxCompressedSize must bound every payload (the pool sizes scratch with it).
func TestMaxCompressedSizeBounds(t *testing.T) {
	for _, c := range []Codec{Identity{}, Int8{}, TopK{Ratio: 0.1}, TopK{Ratio: 1}, Float16{}, BFloat16{}} {
		for _, n := range []int{1, 7, 100, 2048} {
			src := randVec(n, int64(n))
			if got, max := len(Encode(c, src)), c.MaxCompressedSize(n); got > max {
				t.Fatalf("%s n=%d: payload %d > MaxCompressedSize %d", c.Name(), n, got, max)
			}
		}
	}
}
