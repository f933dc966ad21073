package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// overlapRank is one learner's traffic in the JSON report.
type overlapRank struct {
	Rank int `json:"rank"`
	// AllReduceBytes is the rank's inter-node gradient-exchange wire bytes
	// (send+recv), as accounted by the DPT engine stats.
	AllReduceBytes int64 `json:"allreduce_bytes"`
	BytesSent      int64 `json:"bytes_sent"`
	BytesRecv      int64 `json:"bytes_recv"`
}

// overlapRun is one training configuration's measurements.
type overlapRun struct {
	WallSeconds float64 `json:"wall_seconds"`
	StepSeconds float64 `json:"step_seconds"`
	// Per-step means of the learner-0 phase decomposition. Under the
	// reactive pipeline AllReduceSeconds is only the exposed tail.
	DataSeconds      float64       `json:"data_seconds"`
	ComputeSeconds   float64       `json:"compute_seconds"`
	IntraNodeSeconds float64       `json:"intranode_seconds"`
	AllReduceSeconds float64       `json:"allreduce_seconds"`
	UpdateSeconds    float64       `json:"update_seconds"`
	PerRank          []overlapRank `json:"per_rank"`
}

// overlapReport is the JSON schema of the overlap workload.
type overlapReport struct {
	Workload string `json:"workload"`
	Codec    string `json:"codec"`
	// GOMAXPROCS records the parallelism the run actually had — overlap
	// efficiency on 1 proc (where compute cannot run while comm goroutines
	// spin) is not comparable to a multi-core measurement.
	GOMAXPROCS        int        `json:"gomaxprocs"`
	NumCPU            int        `json:"num_cpu"`
	Learners          int        `json:"learners"`
	DevicesPerNode    int        `json:"devices_per_node"`
	Steps             int        `json:"steps"`
	BucketFloats      int        `json:"bucket_floats"`
	GradFloats        int        `json:"grad_floats"`
	LinkLatencyMicros float64    `json:"link_latency_micros"`
	LinkBytesPerSec   float64    `json:"link_bytes_per_sec"`
	Phased            overlapRun `json:"phased"`
	Overlapped        overlapRun `json:"overlapped"`
	// OverlapEfficiency is overlapped step time divided by the phased
	// compute+comm sum — 1.0 means no overlap, lower is better.
	OverlapEfficiency float64 `json:"overlap_efficiency"`
	// CommHiddenFraction is how much of the phased exposed allreduce time
	// the reactive pipeline hid under backward compute.
	CommHiddenFraction float64 `json:"comm_hidden_fraction"`
	Speedup            float64 `json:"speedup"`
	// BitwiseIdentical confirms the two schedules produced identical final
	// parameters (the reactive pipeline's correctness guarantee).
	BitwiseIdentical bool `json:"bitwise_identical"`
	// Encode-parallel microbenchmark: the run's codec over a 1M-float buffer
	// through AppendCompressAuto at one worker vs. the full pool, and the
	// resulting speedup — the codec-side parallelism the Stream's batch
	// encode exposes. On a 1-proc run the two are the same serial path and
	// the speedup reads 1.0.
	EncodeSerialGBs       float64 `json:"encode_serial_gbs"`
	EncodePoolGBs         float64 `json:"encode_pool_gbs"`
	EncodeParallelSpeedup float64 `json:"encode_parallel_speedup"`
}

// measureEncodeParallel times the codec's encode at one worker and at the
// full pool width over a bucket big enough to engage the chunk-parallel
// path, returning GB/s of uncompressed floats processed.
func measureEncodeParallel(c compress.Codec) (serialGBs, poolGBs float64) {
	const floats = 1 << 20
	src := make([]float32, floats)
	for i := range src {
		src[i] = float32(i%251)*0.013 - 1.6
	}
	gb := 4 * float64(floats) / 1e9
	scratch := make([]byte, 0, c.MaxCompressedSize(floats))
	prev := kernels.SetWorkers(1)
	s, _ := timeIt(func() { compress.AppendCompressAuto(c, scratch[:0], src) })
	kernels.SetWorkers(prev)
	serialGBs = gb / s
	s, _ = timeIt(func() { compress.AppendCompressAuto(c, scratch[:0], src) })
	poolGBs = gb / s
	return serialGBs, poolGBs
}

// overlapWorkload trains the same comm-heavy configuration twice — phased
// bucketed allreduce, then the reactive pipeline — over a latency-injected
// in-process cluster, and reports compute time, comm time, and overlap
// efficiency (step time vs. the compute+comm sum). The inter-node link
// charges real wall time per byte through one egress NIC per node, so the
// only way the overlapped run can be faster is by genuinely hiding
// communication under backward compute.
func overlapWorkload(o options) error {
	const learners, devices, steps = 2, 1, 10
	const bucketFloats = 1024
	// Latency-dominated link with per-bucket cost at the scale of the Go
	// scheduler's async-preemption slice (~10 ms): even on a single-core
	// runner — where CPU work cannot overlap and sleeping send goroutines
	// only get handoff slices at preemption boundaries — most of the wire
	// time still hides under backward compute. On multi-core runners the
	// overlap is correspondingly larger.
	link := mpi.LinkProfile{Latency: 8 * time.Millisecond, BytesPerSec: 64 << 20}
	p := abPair{
		names:    [2]string{"phased", "overlapped"},
		learners: learners, devices: devices, steps: steps,
		classes: 8, size: 24, batchPerDevice: 32,
		codec: o.codec, bucketFloats: bucketFloats,
		newModel: func(seed int64) nn.Layer { return core.OverlapBenchModel(8, 24, 900+seed) },
		learner: core.Config{
			Allreduce:       allreduce.AlgMultiColor,
			Schedule:        sgd.Const(0.05),
			SGD:             sgd.DefaultConfig(),
			OverlapInFlight: 16,
		},
		newWorld: func(n int) *mpi.World { return mpi.NewLatencyWorld(n, link) },
		vary:     func(c *core.Config) { c.Overlap = true },
	}
	phased, overlapped, err := runPair(p)
	if err != nil {
		return err
	}

	summarize := func(r abRun) overlapRun {
		ph := r.Phases[0]
		s := float64(steps)
		sum := overlapRun{
			WallSeconds:      r.wall.Seconds(),
			StepSeconds:      r.wall.Seconds() / s,
			DataSeconds:      ph.Data / s,
			ComputeSeconds:   ph.Compute / s,
			IntraNodeSeconds: ph.IntraNode / s,
			AllReduceSeconds: ph.AllReduce / s,
			UpdateSeconds:    ph.Update / s,
		}
		for rank, cs := range r.CommStats {
			sum.PerRank = append(sum.PerRank, overlapRank{
				Rank:           rank,
				AllReduceBytes: cs.BytesSent + cs.BytesRecv,
				BytesSent:      cs.BytesSent,
				BytesRecv:      cs.BytesRecv,
			})
		}
		return sum
	}

	rep := overlapReport{
		Workload:          "overlap",
		Codec:             o.codec,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		Learners:          learners,
		DevicesPerNode:    devices,
		Steps:             steps,
		BucketFloats:      bucketFloats,
		GradFloats:        len(phased.FinalWeights[0]),
		LinkLatencyMicros: float64(link.Latency) / float64(time.Microsecond),
		LinkBytesPerSec:   link.BytesPerSec,
		Phased:            summarize(phased),
		Overlapped:        summarize(overlapped),
		BitwiseIdentical:  true,
	}
	computeComm := rep.Phased.ComputeSeconds + rep.Phased.AllReduceSeconds
	if computeComm > 0 {
		rep.OverlapEfficiency = rep.Overlapped.StepSeconds / computeComm
	}
	if rep.Phased.AllReduceSeconds > 0 {
		rep.CommHiddenFraction = 1 - rep.Overlapped.AllReduceSeconds/rep.Phased.AllReduceSeconds
	}
	if rep.Overlapped.StepSeconds > 0 {
		rep.Speedup = rep.Phased.StepSeconds / rep.Overlapped.StepSeconds
	}
	if c, err := compress.New(codecConfig(o.codec, 0)); err == nil {
		rep.EncodeSerialGBs, rep.EncodePoolGBs = measureEncodeParallel(c)
		if rep.EncodeSerialGBs > 0 {
			rep.EncodeParallelSpeedup = rep.EncodePoolGBs / rep.EncodeSerialGBs
		}
	}

	fmt.Printf("overlap workload: codec=%s learners=%d devices=%d steps=%d grad=%d floats buckets=%d floats\n",
		o.codec, learners, devices, steps, rep.GradFloats, bucketFloats)
	fmt.Printf("  link: %.0f µs latency, %.0f MB/s per-node egress\n",
		rep.LinkLatencyMicros, link.BytesPerSec/1e6)
	fmt.Printf("  phased:     %7.2f ms/step (compute %.2f ms + allreduce %.2f ms + rest)\n",
		1e3*rep.Phased.StepSeconds, 1e3*rep.Phased.ComputeSeconds, 1e3*rep.Phased.AllReduceSeconds)
	fmt.Printf("  overlapped: %7.2f ms/step (compute %.2f ms, exposed allreduce %.2f ms)\n",
		1e3*rep.Overlapped.StepSeconds, 1e3*rep.Overlapped.ComputeSeconds, 1e3*rep.Overlapped.AllReduceSeconds)
	fmt.Printf("  overlap efficiency: %.3f (step time / compute+comm; <1 = communication hidden)\n", rep.OverlapEfficiency)
	fmt.Printf("  comm hidden: %.1f%%   speedup: %.2fx   bitwise identical: %v\n",
		100*rep.CommHiddenFraction, rep.Speedup, rep.BitwiseIdentical)
	fmt.Printf("  encode (%s, 1M floats): %.2f GB/s serial, %.2f GB/s pool (%.2fx)\n",
		o.codec, rep.EncodeSerialGBs, rep.EncodePoolGBs, rep.EncodeParallelSpeedup)
	for _, pr := range rep.Phased.PerRank {
		fmt.Printf("  rank %d AllReduceBytes: %d\n", pr.Rank, pr.AllReduceBytes)
	}
	return writeReport(o.jsonPath, "BENCH_overlap.*.json", rep)
}
