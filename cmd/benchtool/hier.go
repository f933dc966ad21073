package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/simnet"
)

// hierRun is one routing configuration's measurements.
type hierRun struct {
	WallSeconds float64 `json:"wall_seconds"`
	StepSeconds float64 `json:"step_seconds"`
	// AllReduceSeconds is the per-step communication share (learner 0).
	AllReduceSeconds float64 `json:"allreduce_seconds"`
	// IntraBytes / InterBytes are the world's cumulative wire bytes per
	// link class (mpi.World.Traffic) — InterBytes is the slow-link traffic
	// the hierarchical routing conserves.
	IntraBytes int64 `json:"intra_bytes"`
	InterBytes int64 `json:"inter_bytes"`
}

// hierReport is the JSON schema of the hier workload.
type hierReport struct {
	Workload       string  `json:"workload"`
	Codec          string  `json:"codec"`
	Nodes          int     `json:"nodes"`
	RanksPerNode   int     `json:"ranks_per_node"`
	DevicesPerNode int     `json:"devices_per_node"`
	Steps          int     `json:"steps"`
	BucketFloats   int     `json:"bucket_floats"`
	GradFloats     int     `json:"grad_floats"`
	IntraLatency   string  `json:"intra_latency"`
	IntraBytesSec  float64 `json:"intra_bytes_per_sec"`
	InterLatency   string  `json:"inter_latency"`
	InterBytesSec  float64 `json:"inter_bytes_per_sec"`
	Flat           hierRun `json:"flat"`
	Hierarchical   hierRun `json:"hierarchical"`
	// InterBytesRatio is flat inter-node bytes over hierarchical
	// inter-node bytes — the slow-link traffic reduction; the workload
	// fails below 2x.
	InterBytesRatio float64 `json:"inter_bytes_ratio"`
	Speedup         float64 `json:"speedup"`
	// BitwiseIdentical confirms the two routings produced identical final
	// parameters on every rank — hierarchical routing is a pure routing
	// change, never an arithmetic one.
	BitwiseIdentical bool `json:"bitwise_identical"`
}

// hierWorkload trains the same comm-heavy job twice on an asymmetric
// (fast-intra/slow-inter) topology world — flat bucketed exchange, then
// hierarchical routing over the same node layout — and reports step time,
// per-link-class wire bytes, and the bitwise equivalence check. Exits
// nonzero if the final weights diverge or the slow-link savings fall below
// 2x: those are the subsystem's two contract claims.
func hierWorkload(o options) error {
	const nodes, ranksPerNode, devices, steps = 2, 4, 1, 6
	const bucketFloats = 16384
	// MinskyFabric numbers scaled down ~200x: the tiny in-process job then
	// spends real (but CI-friendly) wall time on the wire, with the
	// intra/inter asymmetry of the calibrated fabric preserved.
	const slowdown = 200
	learners := nodes * ranksPerNode
	topo := mpi.UniformTopology(learners, ranksPerNode)
	intra, inter, err := simnet.MinskyFabric(nodes).LinkProfiles(slowdown)
	if err != nil {
		return err
	}
	p := abPair{
		names:    [2]string{"flat", "hierarchical"},
		learners: learners, devices: devices, steps: steps,
		classes: 8, size: 12, batchPerDevice: 8,
		codec: o.codec, bucketFloats: bucketFloats,
		newModel: func(seed int64) nn.Layer { return core.AllocBenchModel(8, 12, 700+seed) },
		learner:  core.Config{Schedule: sgd.Const(0.05), SGD: sgd.DefaultConfig()},
		newWorld: func(n int) *mpi.World {
			w, err := mpi.NewTopologyWorld(n, topo, intra, inter)
			if err != nil {
				panic(err) // topology is internally consistent by construction
			}
			return w
		},
		vary: func(c *core.Config) { c.Topology = topo },
	}
	flat, hier, err := runPair(p)
	if err != nil {
		return err
	}

	summarize := func(r abRun) hierRun {
		s := float64(steps)
		return hierRun{
			WallSeconds:      r.wall.Seconds(),
			StepSeconds:      r.wall.Seconds() / s,
			AllReduceSeconds: r.Phases[0].AllReduce / s,
			IntraBytes:       r.traffic.IntraBytes,
			InterBytes:       r.traffic.InterBytes,
		}
	}

	rep := hierReport{
		Workload:         "hier",
		Codec:            o.codec,
		Nodes:            nodes,
		RanksPerNode:     ranksPerNode,
		DevicesPerNode:   devices,
		Steps:            steps,
		BucketFloats:     bucketFloats,
		GradFloats:       len(flat.FinalWeights[0]),
		IntraLatency:     intra.Latency.String(),
		IntraBytesSec:    intra.BytesPerSec,
		InterLatency:     inter.Latency.String(),
		InterBytesSec:    inter.BytesPerSec,
		Flat:             summarize(flat),
		Hierarchical:     summarize(hier),
		BitwiseIdentical: true,
	}
	if rep.Hierarchical.InterBytes > 0 {
		rep.InterBytesRatio = float64(rep.Flat.InterBytes) / float64(rep.Hierarchical.InterBytes)
	}
	if rep.Hierarchical.StepSeconds > 0 {
		rep.Speedup = rep.Flat.StepSeconds / rep.Hierarchical.StepSeconds
	}

	fmt.Printf("hier workload: codec=%s nodes=%d ranks/node=%d devices=%d steps=%d grad=%d floats buckets=%d floats\n",
		o.codec, nodes, ranksPerNode, devices, steps, rep.GradFloats, bucketFloats)
	fmt.Printf("  links (MinskyFabric/%d): intra %s + %.0f MB/s, inter %s + %.0f MB/s\n",
		slowdown, rep.IntraLatency, intra.BytesPerSec/1e6, rep.InterLatency, inter.BytesPerSec/1e6)
	for _, row := range []struct {
		name string
		r    hierRun
	}{{"flat", rep.Flat}, {"hierarchical", rep.Hierarchical}} {
		fmt.Printf("  %-13s %7.2f ms/step (comm %.2f ms)  intra %d bytes  inter %d bytes\n",
			row.name, 1e3*row.r.StepSeconds, 1e3*row.r.AllReduceSeconds, row.r.IntraBytes, row.r.InterBytes)
	}
	fmt.Printf("  slow-link bytes: %.2fx fewer   speedup: %.2fx   bitwise identical: %v\n",
		rep.InterBytesRatio, rep.Speedup, rep.BitwiseIdentical)

	if err := writeReport(o.jsonPath, "BENCH_hier.*.json", rep); err != nil {
		return err
	}
	if rep.InterBytesRatio < 2 {
		return fmt.Errorf("benchtool: hierarchical routing saved only %.2fx slow-link bytes (want >= 2x)", rep.InterBytesRatio)
	}
	return nil
}
