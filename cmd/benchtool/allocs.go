package main

import (
	"fmt"
	"runtime"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// allocsRun is one schedule's steady-state allocation profile, measured
// process-wide (all ranks' goroutines) across the measured steps.
type allocsRun struct {
	AllocsPerStep    float64 `json:"allocs_per_step"`
	BytesPerStep     float64 `json:"bytes_per_step"`
	GCPauseNsPerStep float64 `json:"gc_pause_ns_per_step"`
	NumGC            uint32  `json:"num_gc"`
}

// allocsReport is the JSON schema of the allocs workload; BENCH_alloc.json
// at the repo root is one of these, and CI gates on it.
type allocsReport struct {
	Workload       string    `json:"workload"`
	Codec          string    `json:"codec"`
	Learners       int       `json:"learners"`
	DevicesPerNode int       `json:"devices_per_node"`
	WarmupSteps    int       `json:"warmup_steps"`
	Steps          int       `json:"steps"`
	BucketFloats   int       `json:"bucket_floats"`
	GradFloats     int       `json:"grad_floats"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	Phased         allocsRun `json:"phased"`
	Overlapped     allocsRun `json:"overlapped"`
}

// allocsWorkload measures allocations per training step for the phased and
// overlapped schedules of a comm-dominated job on an in-process cluster.
// Warmup steps run first so the shared buffer pools are populated and the
// numbers reflect steady state. The run fails if either schedule's
// allocs/step regresses by more than maxRegress versus the committed
// BENCH_alloc.json — the CI gate — unless -update rewrites that baseline.
//
// The run pins GOMAXPROCS to allocsProcs: kernel pool dispatch allocates
// per parallel job, so the count depends on the host's CPU count unless the
// width is fixed.
func allocsWorkload(o options) error {
	const learners, devices, steps = 2, 1, 25
	const classes, size, batchPerDevice = 8, 16, 8
	const bucketFloats = 1024
	const warmup = 5
	const allocsProcs = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(allocsProcs))
	images := batchPerDevice * devices * learners
	dataX, dataLabels := core.SyntheticTensorData(images, classes, size, 23)

	measure := func(overlap bool) (allocsRun, int, error) {
		world := mpi.NewWorld(learners)
		defer world.Close()
		var m0, m1 runtime.MemStats
		gradFloats := 0
		err := world.Run(func(c *mpi.Comm) error {
			replicas := make([]nn.Layer, devices)
			for d := range replicas {
				replicas[d] = core.AllocBenchModel(classes, size, int64(700+c.Rank()*devices+d))
			}
			l, err := core.NewLearner(c, replicas, &core.SliceSource{
				X: dataX, Labels: dataLabels, Rank: c.Rank(), Ranks: learners,
			}, 3, size, size, core.Config{
				BatchPerDevice:  batchPerDevice,
				Allreduce:       allreduce.AlgMultiColor,
				Schedule:        sgd.Const(0.05),
				SGD:             sgd.DefaultConfig(),
				Compression:     codecConfig(o.codec, bucketFloats),
				Overlap:         overlap,
				OverlapInFlight: 16,
			})
			if err != nil {
				return err
			}
			defer l.Close()
			if c.Rank() == 0 {
				gradFloats = l.Engine().GradSize()
			}
			for t := 0; t < warmup; t++ {
				if _, err := l.Step(); err != nil {
					return err
				}
			}
			// The dissemination barrier makes every rank's exit depend on
			// every rank's entry, so between the paired barriers all other
			// ranks are parked in the second barrier while rank 0 snapshots
			// the process-wide heap counters.
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				runtime.GC()
				runtime.ReadMemStats(&m0)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			for t := 0; t < steps; t++ {
				if _, err := l.Step(); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&m1)
			}
			return c.Barrier()
		})
		if err != nil {
			return allocsRun{}, 0, err
		}
		s := float64(steps)
		return allocsRun{
			AllocsPerStep:    float64(m1.Mallocs-m0.Mallocs) / s,
			BytesPerStep:     float64(m1.TotalAlloc-m0.TotalAlloc) / s,
			GCPauseNsPerStep: float64(m1.PauseTotalNs-m0.PauseTotalNs) / s,
			NumGC:            m1.NumGC - m0.NumGC,
		}, gradFloats, nil
	}

	phased, gradFloats, err := measure(false)
	if err != nil {
		return fmt.Errorf("benchtool: allocs phased run: %w", err)
	}
	overlapped, _, err := measure(true)
	if err != nil {
		return fmt.Errorf("benchtool: allocs overlapped run: %w", err)
	}

	rep := allocsReport{
		Workload:       "allocs",
		Codec:          o.codec,
		Learners:       learners,
		DevicesPerNode: devices,
		WarmupSteps:    warmup,
		Steps:          steps,
		BucketFloats:   bucketFloats,
		GradFloats:     gradFloats,
		GOMAXPROCS:     allocsProcs,
		Phased:         phased,
		Overlapped:     overlapped,
	}
	fmt.Printf("allocs workload: codec=%s learners=%d devices=%d steps=%d (+%d warmup) grad=%d floats buckets=%d floats GOMAXPROCS=%d\n",
		o.codec, learners, devices, steps, warmup, gradFloats, bucketFloats, allocsProcs)
	for _, row := range []struct {
		name string
		r    allocsRun
	}{{"phased", phased}, {"overlapped", overlapped}} {
		fmt.Printf("  %-10s %10.0f allocs/step  %12.0f bytes/step  gc pause %8.0f ns/step  (%d GCs)\n",
			row.name, row.r.AllocsPerStep, row.r.BytesPerStep, row.r.GCPauseNsPerStep, row.r.NumGC)
	}

	return baselineGate(o, "BENCH_alloc.json", "BENCH_alloc.*.json", &rep, func(base *allocsReport) []check {
		return []check{
			{"phased allocs/step", phased.AllocsPerStep, base.Phased.AllocsPerStep, false},
			{"overlapped allocs/step", overlapped.AllocsPerStep, base.Overlapped.AllocsPerStep, false},
		}
	})
}
