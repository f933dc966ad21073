package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// gemmResult is one GEMM shape's throughput at single-worker and full-pool
// widths. gflops_serial is always the streaming (unpacked) kernel at one
// worker — the historical reference every baseline was recorded against —
// while gflops_packed_serial is the packed microkernel path at one worker
// and gflops_pool is the default routing (packed for whole 4×16 tiles at
// k >= 16 with the AVX2 kernels, above 2^21 flops without) on the full
// pool. role names the shape; the conv-* roles are the three GEMMs of one
// TinyResNet conv layer. parallel_gain is pool over streaming-serial: the
// headline packed+parallel win gated at >= 2x on >= 4 CPUs. gate names what
// the baseline check compares: "pool" the absolute gflops_pool, and
// "packed_over_stream" gflops_packed_serial / gflops_serial, a ratio of two
// kernels timed in the same run that moves far less with the host than
// absolute GFLOP/s do.
type gemmResult struct {
	Role               string  `json:"role"`
	Gate               string  `json:"gate"`
	TransA             bool    `json:"trans_a"`
	TransB             bool    `json:"trans_b"`
	M                  int     `json:"m"`
	NDim               int     `json:"n"`
	KDim               int     `json:"k"`
	GFLOPSSerial       float64 `json:"gflops_serial"`
	GFLOPSPackedSerial float64 `json:"gflops_packed_serial"`
	GFLOPSPool         float64 `json:"gflops_pool"`
	ParallelGain       float64 `json:"parallel_gain"`
	IterationsRun      int     `json:"iterations"`
}

// kernelsReport is the JSON schema of the -kernels workload; BENCH_kernels.json
// at the repo root is one of these, and CI gates on it. Throughput numbers are
// all higher-is-better, which is what the baseline check assumes.
type kernelsReport struct {
	Workload   string `json:"workload"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers"`
	// PackedKernels records whether the host ran the AVX2 packed GEMM
	// kernels; without them every product streams and the
	// packed_over_stream gates are not comparable.
	PackedKernels bool `json:"packed_kernels"`

	Gemm []gemmResult `json:"gemm"`

	// Conv step time (forward+backward, ms) at 1 worker vs the full pool,
	// and the resulting speedup — the headline number the issue gates on.
	ConvBatch        int     `json:"conv_batch"`
	ConvMsSerial     float64 `json:"conv_ms_serial"`
	ConvMsPool       float64 `json:"conv_ms_pool"`
	ConvSpeedup      float64 `json:"conv_speedup"`
	ConvThroughputIS float64 `json:"conv_images_per_sec"`

	// Codec throughputs in GB/s of uncompressed float bytes processed.
	// Encodes go through AppendCompressAuto — the production Stream path —
	// so on multi-core machines they include the chunk-parallel win; on one
	// worker Auto falls back to the serial encoder, keeping single-core
	// numbers comparable to older baselines.
	Int8EncodeGBs     float64 `json:"int8_encode_gbs"`
	Int8DecodeGBs     float64 `json:"int8_decode_gbs"`
	Int8DecodeAddGBs  float64 `json:"int8_decode_add_gbs"`
	IdentityAddGBs    float64 `json:"identity_decode_add_gbs"`
	TopKEncodeGBs     float64 `json:"topk_encode_gbs"`
	F16EncodeGBs      float64 `json:"f16_encode_gbs"`
	F16DecodeAddGBs   float64 `json:"f16_decode_add_gbs"`
	BF16EncodeGBs     float64 `json:"bf16_encode_gbs"`
	BF16DecodeAddGBs  float64 `json:"bf16_decode_add_gbs"`
	CodecBucketFloats int     `json:"codec_bucket_floats"`
}

// timeIt runs fn repeatedly until the total exceeds a floor (after one
// warmup call) and returns the mean seconds per call.
func timeIt(fn func()) (secs float64, iters int) {
	fn() // warmup: fault in scratch, populate pools
	const floor = 150 * time.Millisecond
	var elapsed time.Duration
	for elapsed < floor {
		start := time.Now()
		fn()
		elapsed += time.Since(start)
		iters++
	}
	return elapsed.Seconds() / float64(iters), iters
}

// kernelsWorkload measures compute-kernel throughput: GEMM GFLOP/s at
// representative shapes, conv forward+backward step time at one worker vs
// the full pool, and codec encode/decode/fused-accumulate bandwidth. When
// baselinePath is set, the run fails if any throughput falls below
// baseline/maxRegress — the CI gate (BENCH_kernels.json). The conv speedup
// itself is enforced only on machines with >= 4 CPUs, where the >= 2x
// parallel win is actually available.
func kernelsWorkload(jsonPath, baselinePath string, maxRegress float64) error {
	rep := kernelsReport{
		Workload:   "kernels",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    kernels.Workers(),

		PackedKernels: tensor.PackedKernels(),
	}

	// GEMM: a square compute-bound shape, the short-wide im2col shape conv
	// lowers to (outC x outH*outW with a small K), and the three GEMMs of
	// TinyResNet's 16->16 3x3 conv on 16x16 maps (outC 16, 256 output
	// pixels, 16*3*3 = 144 columns) as nn.Conv2D issues them.
	shapes := []struct {
		role, gate     string
		transA, transB bool
		m, n, k        int
	}{
		{"square", "pool", false, false, 256, 256, 256},
		{"conv", "pool", false, false, 16, 784, 288},                          // 16 outC, 28x28 output, 8*6*6 columns
		{"conv-forward", "packed_over_stream", false, false, 16, 256, 144},    // W·cols
		{"conv-weight-grad", "packed_over_stream", false, true, 16, 144, 256}, // dW += g·colsᵀ
		{"conv-col-grad", "packed_over_stream", true, false, 144, 256, 16},    // dCols = Wᵀ·g
	}
	for _, sh := range shapes {
		a := make([]float32, sh.m*sh.k)
		b := make([]float32, sh.k*sh.n)
		c := make([]float32, sh.m*sh.n)
		for i := range a {
			a[i] = float32(i%13) * 0.25
		}
		for i := range b {
			b[i] = float32(i%7) * 0.5
		}
		flops := 2 * float64(sh.m) * float64(sh.n) * float64(sh.k)

		// Streaming serial reference: packed routing disabled, one worker.
		prev := kernels.SetWorkers(1)
		prevMin := tensor.SetPackedMinFlops(sh.m*sh.n*sh.k + 1)
		gemm := func() { tensor.Gemm(sh.transA, sh.transB, sh.m, sh.n, sh.k, 1, a, b, 0, c) }
		sSerial, _ := timeIt(gemm)
		tensor.SetPackedMinFlops(0) // force packed at one worker
		sPacked1, _ := timeIt(gemm)
		tensor.SetPackedMinFlops(prevMin)
		kernels.SetWorkers(prev)
		// Default routing on the full pool: the production hot path.
		sPool, iters := timeIt(gemm)

		r := gemmResult{
			Role: sh.role, Gate: sh.gate, TransA: sh.transA, TransB: sh.transB,
			M: sh.m, NDim: sh.n, KDim: sh.k,
			GFLOPSSerial:       flops / sSerial / 1e9,
			GFLOPSPackedSerial: flops / sPacked1 / 1e9,
			GFLOPSPool:         flops / sPool / 1e9,
			IterationsRun:      iters,
		}
		r.ParallelGain = r.GFLOPSPool / r.GFLOPSSerial
		rep.Gemm = append(rep.Gemm, r)
	}

	// Conv forward+backward: the batch-parallel hot path. One layer, reused
	// scratch — the steady-state per-step cost.
	const batch, inC, outC, size = 16, 8, 16, 24
	rep.ConvBatch = batch
	rng := tensor.NewRNG(5)
	conv := nn.NewConv2D("bench", inC, outC, 3, 3, 1, 1, 1, 1, nn.ConvOpts{Bias: true}, rng)
	x := tensor.New(batch, inC, size, size)
	rng.FillNormal(x, 0, 1)
	convStep := func() {
		out := conv.Forward(x, true)
		conv.Backward(out)
	}
	prev := kernels.SetWorkers(1)
	sSerial, _ := timeIt(convStep)
	kernels.SetWorkers(prev)
	sPool, _ := timeIt(convStep)
	rep.ConvMsSerial = 1e3 * sSerial
	rep.ConvMsPool = 1e3 * sPool
	rep.ConvSpeedup = sSerial / sPool
	rep.ConvThroughputIS = float64(batch) / sPool

	// Codecs on a 1M-float bucket; GB/s counts uncompressed float bytes.
	const bucket = 1 << 20
	rep.CodecBucketFloats = bucket
	src := make([]float32, bucket)
	for i := range src {
		src[i] = float32(i%251)*0.013 - 1.6
	}
	gb := 4 * float64(bucket) / 1e9
	encodeGBs := func(c compress.Codec) float64 {
		scratch := make([]byte, 0, c.MaxCompressedSize(bucket))
		s, _ := timeIt(func() { compress.AppendCompressAuto(c, scratch[:0], src) })
		return gb / s
	}
	dst := make([]float32, bucket)
	decodeAddGBs := func(c compress.Codec) float64 {
		payload := compress.Encode(c, src)
		s, _ := timeIt(func() { _ = c.DecompressAdd(dst, payload) })
		return gb / s
	}
	rep.Int8EncodeGBs = encodeGBs(compress.Int8{})
	payload := compress.Encode(compress.Int8{}, src)
	s, _ := timeIt(func() { _ = compress.Int8{}.Decompress(dst, payload) })
	rep.Int8DecodeGBs = gb / s
	rep.Int8DecodeAddGBs = decodeAddGBs(compress.Int8{})
	rep.IdentityAddGBs = decodeAddGBs(compress.Identity{})
	rep.TopKEncodeGBs = encodeGBs(compress.TopK{Ratio: 0.1})
	rep.F16EncodeGBs = encodeGBs(compress.Float16{})
	rep.F16DecodeAddGBs = decodeAddGBs(compress.Float16{})
	rep.BF16EncodeGBs = encodeGBs(compress.BFloat16{})
	rep.BF16DecodeAddGBs = decodeAddGBs(compress.BFloat16{})

	fmt.Printf("kernels workload: GOMAXPROCS=%d cpus=%d pool workers=%d\n", rep.GOMAXPROCS, rep.NumCPU, rep.Workers)
	for _, g := range rep.Gemm {
		fmt.Printf("  gemm %-16s tA=%-5v tB=%-5v %4dx%4dx%4d: %7.2f GFLOP/s stream-serial, %7.2f packed-serial, %7.2f pool (%.2fx)\n",
			g.Role, g.TransA, g.TransB, g.M, g.NDim, g.KDim, g.GFLOPSSerial, g.GFLOPSPackedSerial, g.GFLOPSPool, g.ParallelGain)
	}
	fmt.Printf("  conv fwd+bwd (batch %d): %7.2f ms serial, %7.2f ms pool (%.2fx, %.0f images/s)\n",
		batch, rep.ConvMsSerial, rep.ConvMsPool, rep.ConvSpeedup, rep.ConvThroughputIS)
	fmt.Printf("  int8: encode %.2f GB/s, decode %.2f GB/s, decode+add %.2f GB/s\n",
		rep.Int8EncodeGBs, rep.Int8DecodeGBs, rep.Int8DecodeAddGBs)
	fmt.Printf("  identity decode+add %.2f GB/s, topk(0.1) encode %.2f GB/s\n",
		rep.IdentityAddGBs, rep.TopKEncodeGBs)
	fmt.Printf("  f16: encode %.2f GB/s, decode+add %.2f GB/s; bf16: encode %.2f GB/s, decode+add %.2f GB/s\n",
		rep.F16EncodeGBs, rep.F16DecodeAddGBs, rep.BF16EncodeGBs, rep.BF16DecodeAddGBs)

	if err := writeReport(jsonPath, "BENCH_kernels.*.json", rep); err != nil {
		return err
	}

	if rep.NumCPU >= 4 && rep.GOMAXPROCS >= 4 {
		if rep.ConvSpeedup < 2 {
			return fmt.Errorf("benchtool: conv fwd+bwd speedup %.2fx at %d procs, want >= 2x",
				rep.ConvSpeedup, rep.GOMAXPROCS)
		}
		// The packed+parallel GEMM win at the compute-bound 256^3 shape:
		// pool throughput over the streaming serial reference.
		if g := rep.Gemm[0]; g.ParallelGain < 2 {
			return fmt.Errorf("benchtool: gemm %dx%dx%d pool gain %.2fx over streaming serial at %d procs, want >= 2x",
				g.M, g.NDim, g.KDim, g.ParallelGain, rep.GOMAXPROCS)
		}
	}

	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("benchtool: reading kernels baseline: %w", err)
		}
		var base kernelsReport
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("benchtool: parsing kernels baseline %s: %w", baselinePath, err)
		}
		check := func(name string, got, want float64) error {
			if want > 0 && got < want/maxRegress {
				return fmt.Errorf("benchtool: %s regressed: %.2f vs baseline %.2f (limit %.1fx)",
					name, got, want, maxRegress)
			}
			fmt.Printf("  %-24s %8.2f within %.1fx of baseline %.2f\n", name, got, maxRegress, want)
			return nil
		}
		for i, g := range rep.Gemm {
			if i >= len(base.Gemm) {
				break
			}
			bg := base.Gemm[i]
			if g.Gate != "packed_over_stream" {
				if err := check(fmt.Sprintf("gemm[%d] %s GFLOP/s", i, g.Role), g.GFLOPSPool, bg.GFLOPSPool); err != nil {
					return err
				}
				continue
			}
			if !rep.PackedKernels || !base.PackedKernels {
				fmt.Printf("  gemm[%d] %s: packed/stream not gated (packed kernels: run %v, baseline %v)\n",
					i, g.Role, rep.PackedKernels, base.PackedKernels)
				continue
			}
			if err := check(fmt.Sprintf("gemm[%d] %s packed/stream", i, g.Role),
				g.GFLOPSPackedSerial/g.GFLOPSSerial, bg.GFLOPSPackedSerial/bg.GFLOPSSerial); err != nil {
				return err
			}
		}
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"conv images/s", rep.ConvThroughputIS, base.ConvThroughputIS},
			{"int8 encode GB/s", rep.Int8EncodeGBs, base.Int8EncodeGBs},
			{"int8 decode GB/s", rep.Int8DecodeGBs, base.Int8DecodeGBs},
			{"int8 decode+add GB/s", rep.Int8DecodeAddGBs, base.Int8DecodeAddGBs},
			{"identity decode+add GB/s", rep.IdentityAddGBs, base.IdentityAddGBs},
			{"topk encode GB/s", rep.TopKEncodeGBs, base.TopKEncodeGBs},
			{"f16 encode GB/s", rep.F16EncodeGBs, base.F16EncodeGBs},
			{"f16 decode+add GB/s", rep.F16DecodeAddGBs, base.F16DecodeAddGBs},
			{"bf16 encode GB/s", rep.BF16EncodeGBs, base.BF16EncodeGBs},
			{"bf16 decode+add GB/s", rep.BF16DecodeAddGBs, base.BF16DecodeAddGBs},
		} {
			if err := check(m.name, m.got, m.want); err != nil {
				return err
			}
		}
	}
	return nil
}
