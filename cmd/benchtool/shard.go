package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// shardRank is one learner's resident optimizer state in the JSON report.
type shardRank struct {
	Rank int `json:"rank"`
	// OptStateBytes is the rank's resident optimizer (momentum) state.
	OptStateBytes int64 `json:"opt_state_bytes"`
	// AllReduceBytes is the rank's gradient-exchange wire traffic
	// (send+recv) over the run.
	AllReduceBytes int64 `json:"allreduce_bytes"`
	// ParamAllGatherBytes is the rank's parameter-allgather wire traffic
	// (send+recv) — the sharded step's extra exchange; zero when replicated.
	ParamAllGatherBytes int64 `json:"param_allgather_bytes"`
}

// shardRun is one configuration's measurements.
type shardRun struct {
	WallSeconds float64 `json:"wall_seconds"`
	StepSeconds float64 `json:"step_seconds"`
	// UpdateSeconds is the per-step optimizer-update share (learner 0) —
	// the compute sharding shrinks.
	UpdateSeconds float64 `json:"update_seconds"`
	// AllReduceSeconds is the per-step communication share (learner 0); in
	// sharded mode it includes the parameter allgather.
	AllReduceSeconds float64     `json:"allreduce_seconds"`
	MaxOptStateBytes int64       `json:"max_opt_state_bytes"`
	PerRank          []shardRank `json:"per_rank"`
}

// shardReport is the JSON schema of the shard workload.
type shardReport struct {
	Workload       string   `json:"workload"`
	Codec          string   `json:"codec"`
	Learners       int      `json:"learners"`
	DevicesPerNode int      `json:"devices_per_node"`
	Steps          int      `json:"steps"`
	BucketFloats   int      `json:"bucket_floats"`
	GradFloats     int      `json:"grad_floats"`
	Replicated     shardRun `json:"replicated"`
	Sharded        shardRun `json:"sharded"`
	// StateScaling is replicated max per-rank optimizer bytes over sharded
	// max per-rank optimizer bytes — ~learners×devices when shards balance.
	StateScaling float64 `json:"state_scaling"`
	// GradBytesScaling is the replicated/sharded ratio of gradient wire
	// bytes alone (owner routing cuts the compressed exchange by ~size-1).
	GradBytesScaling float64 `json:"grad_bytes_scaling"`
	// TotalBytesScaling is the replicated/sharded ratio of ALL wire bytes —
	// gradient exchange plus the sharded step's parameter allgather — the
	// honest traffic comparison.
	TotalBytesScaling float64 `json:"total_bytes_scaling"`
	Speedup           float64 `json:"speedup"`
	// BitwiseIdentical confirms sharded and replicated runs produced the
	// same final parameters on every rank — the ZeRO-1 correctness claim.
	BitwiseIdentical bool `json:"bitwise_identical"`
}

// shardWorkload trains the same parameter-heavy job twice — replicated
// optimizer state, then ZeRO-1 sharded — and reports per-rank optimizer-
// state bytes, step time, and the final-weight equivalence check.
func shardWorkload(o options) error {
	const learners, devices, steps = 4, 1, 10
	const bucketFloats = 1024
	// Size 8 flattens to 192 inputs, so ShardBenchModel's first dense layer
	// matches its hidden layers and the shard layout can balance.
	p := abPair{
		names:    [2]string{"replicated", "sharded"},
		learners: learners, devices: devices, steps: steps,
		classes: 8, size: 8, batchPerDevice: 8,
		codec: o.codec, bucketFloats: bucketFloats,
		newModel: func(seed int64) nn.Layer { return core.ShardBenchModel(8, 8, 700+seed) },
		learner:  core.Config{Schedule: sgd.Const(0.05), SGD: sgd.DefaultConfig()},
		vary:     func(c *core.Config) { c.ShardOptimizer = true },
	}
	repl, shard, err := runPair(p)
	if err != nil {
		return err
	}

	summarize := func(r abRun) shardRun {
		s := float64(steps)
		sum := shardRun{
			WallSeconds:      r.wall.Seconds(),
			StepSeconds:      r.wall.Seconds() / s,
			UpdateSeconds:    r.Phases[0].Update / s,
			AllReduceSeconds: r.Phases[0].AllReduce / s,
		}
		for rank, b := range r.OptStateBytes {
			cs := r.CommStats[rank]
			sum.PerRank = append(sum.PerRank, shardRank{
				Rank:                rank,
				OptStateBytes:       b,
				AllReduceBytes:      cs.BytesSent + cs.BytesRecv,
				ParamAllGatherBytes: r.ParamAGBytes[rank],
			})
			if b > sum.MaxOptStateBytes {
				sum.MaxOptStateBytes = b
			}
		}
		return sum
	}

	rep := shardReport{
		Workload:         "shard",
		Codec:            o.codec,
		Learners:         learners,
		DevicesPerNode:   devices,
		Steps:            steps,
		BucketFloats:     bucketFloats,
		GradFloats:       len(repl.FinalWeights[0]),
		Replicated:       summarize(repl),
		Sharded:          summarize(shard),
		BitwiseIdentical: true,
	}
	if rep.Sharded.MaxOptStateBytes > 0 {
		rep.StateScaling = float64(rep.Replicated.MaxOptStateBytes) / float64(rep.Sharded.MaxOptStateBytes)
	}
	replGrad := rep.Replicated.PerRank[0].AllReduceBytes
	shardGrad := rep.Sharded.PerRank[0].AllReduceBytes
	if shardGrad > 0 {
		rep.GradBytesScaling = float64(replGrad) / float64(shardGrad)
	}
	shardTotal := shardGrad + rep.Sharded.PerRank[0].ParamAllGatherBytes
	if shardTotal > 0 {
		rep.TotalBytesScaling = float64(replGrad+rep.Replicated.PerRank[0].ParamAllGatherBytes) / float64(shardTotal)
	}
	if rep.Sharded.StepSeconds > 0 {
		rep.Speedup = rep.Replicated.StepSeconds / rep.Sharded.StepSeconds
	}

	fmt.Printf("shard workload (ZeRO-1): codec=%s learners=%d devices=%d steps=%d grad=%d floats buckets=%d floats\n",
		o.codec, learners, devices, steps, rep.GradFloats, bucketFloats)
	for _, row := range []struct {
		name string
		r    shardRun
	}{{"replicated", rep.Replicated}, {"sharded", rep.Sharded}} {
		fmt.Printf("  %-10s %7.2f ms/step (update %.2f ms, comm %.2f ms)  max opt state %d bytes\n",
			row.name, 1e3*row.r.StepSeconds, 1e3*row.r.UpdateSeconds, 1e3*row.r.AllReduceSeconds, row.r.MaxOptStateBytes)
	}
	fmt.Printf("  per-rank optimizer state (sharded):")
	for _, pr := range rep.Sharded.PerRank {
		fmt.Printf(" rank%d=%d", pr.Rank, pr.OptStateBytes)
	}
	fmt.Println()
	fmt.Printf("  state scaling: %.2fx smaller per rank (world %d×%d)   grad wire bytes: %.2fx fewer (%.2fx total incl. param allgather)\n",
		rep.StateScaling, learners, devices, rep.GradBytesScaling, rep.TotalBytesScaling)
	fmt.Printf("  speedup: %.2fx   bitwise identical: %v\n", rep.Speedup, rep.BitwiseIdentical)
	return writeReport(o.jsonPath, "BENCH_shard.*.json", rep)
}
