package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/nn"
)

// writeReport lands a workload's JSON report somewhere inspectable: at
// jsonPath when the user passed -json, otherwise at a fresh file in the OS
// temp directory named after tempPattern (os.CreateTemp semantics — the `*`
// becomes a unique suffix). Every workload routes through here so none of
// them silently discards its report or litters the working tree; a fixed
// temp path would collide across users on a shared machine, hence the
// per-run unique name.
func writeReport(jsonPath, tempPattern string, report any) error {
	if jsonPath == "" {
		f, err := os.CreateTemp("", tempPattern)
		if err != nil {
			return err
		}
		jsonPath = f.Name()
		f.Close()
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", jsonPath)
	return nil
}

// maxRegress is the factor by which a gated metric may be worse than its
// committed baseline before the workload fails.
const maxRegress = 2.0

// check is one gated metric: this run's value against the baseline's.
type check struct {
	name           string
	got, want      float64
	higherIsBetter bool
}

// gate prints one line per check and fails if any metric is worse than its
// baseline by more than maxRegress. A baseline of zero is not gated.
func gate(checks []check) error {
	var failed []string
	for _, c := range checks {
		ok := c.want <= 0 ||
			(c.higherIsBetter && c.got >= c.want/maxRegress) ||
			(!c.higherIsBetter && c.got <= c.want*maxRegress)
		verdict := "within"
		if !ok {
			verdict = "REGRESSED beyond"
			failed = append(failed, c.name)
		}
		fmt.Printf("  %-38s %10.2f %s %.1fx of baseline %.2f\n", c.name, c.got, verdict, maxRegress, c.want)
	}
	if len(failed) > 0 {
		return fmt.Errorf("benchtool: regressed more than %.1fx against the baseline: %s",
			maxRegress, strings.Join(failed, ", "))
	}
	return nil
}

// baselineGate finishes a workload that has a committed baseline at path.
// With -update it writes rep over that file. Otherwise it writes rep like
// any report, reads the baseline into a value of rep's type, and gates the
// checks built from it.
func baselineGate[R any](o options, path, tempPattern string, rep *R, checks func(base *R) []check) error {
	if o.update {
		return writeReport(path, "", rep)
	}
	if err := writeReport(o.jsonPath, tempPattern, rep); err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchtool: reading baseline: %w", err)
	}
	var base R
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchtool: parsing baseline %s: %w", path, err)
	}
	return gate(checks(&base))
}

// abPair is the setup the A/B workloads (overlap, shard, hier) share: both
// runs train the same model on the same synthetic data through the same
// codec, and run B's learner config differs from run A's only by vary.
type abPair struct {
	names                         [2]string
	learners, devices, steps      int
	classes, size, batchPerDevice int
	codec                         string
	bucketFloats                  int
	newModel                      func(seed int64) nn.Layer
	// learner is run A's learner config; BatchPerDevice and Compression
	// are filled in from the fields above.
	learner core.Config
	// newWorld builds each run's world; nil means mpi.NewWorld.
	newWorld func(n int) *mpi.World
	vary     func(*core.Config)
}

// abRun is one side of a pair: the cluster result, its wall time, and the
// world's per-link-class traffic.
type abRun struct {
	*core.ClusterResult
	wall    time.Duration
	traffic mpi.Traffic
}

// runPair trains both configurations of p. It fails if either run fails or
// if their final weights differ in any bit: every pair workload changes
// only scheduling or routing, never the arithmetic.
func runPair(p abPair) (a, b abRun, err error) {
	images := p.batchPerDevice * p.devices * p.learners
	dataX, dataLabels := core.SyntheticTensorData(images, p.classes, p.size, 23)
	newWorld := p.newWorld
	if newWorld == nil {
		newWorld = mpi.NewWorld
	}
	run := func(learner core.Config) (abRun, error) {
		var world *mpi.World
		start := time.Now()
		res, err := core.RunCluster(core.ClusterConfig{
			Learners:       p.learners,
			DevicesPerNode: p.devices,
			NewReplica:     p.newModel,
			NewSource: func(rank int) core.BatchSource {
				return &core.SliceSource{X: dataX, Labels: dataLabels, Rank: rank, Ranks: p.learners}
			},
			Steps:  p.steps,
			InputC: 3, InputH: p.size, InputW: p.size,
			NewWorld: func(n int) *mpi.World {
				world = newWorld(n)
				return world
			},
			Learner: learner,
		})
		if err != nil {
			return abRun{}, err
		}
		return abRun{res, time.Since(start), world.Traffic()}, nil
	}

	cfgA := p.learner
	cfgA.BatchPerDevice = p.batchPerDevice
	cfgA.Compression = codecConfig(p.codec, p.bucketFloats)
	cfgB := cfgA
	p.vary(&cfgB)
	if a, err = run(cfgA); err != nil {
		return a, b, fmt.Errorf("benchtool: %s run: %w", p.names[0], err)
	}
	if b, err = run(cfgB); err != nil {
		return a, b, fmt.Errorf("benchtool: %s run: %w", p.names[1], err)
	}
	for r := range a.FinalWeights {
		for i, w := range a.FinalWeights[r] {
			if b.FinalWeights[r][i] != w {
				return a, b, fmt.Errorf("benchtool: %s final weights diverge from %s (rank %d, element %d)",
					p.names[1], p.names[0], r, i)
			}
		}
	}
	return a, b, nil
}
