package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times an untraced run builds the workload from
// scratch; setup_s is the median, and all set-ups' fingerprints must agree.
const setupRepeats = 7

// report is the human-readable detail printed before the result line.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Ranks        int                `json:"ranks"`
	GlobalBatch  int                `json:"global_batch"`
	StepSamples  int                `json:"step_samples"`
	SetupSamples []float64          `json:"setup_s_samples,omitempty"`
	FirstLoss    float64            `json:"first_loss"`
	FinalLoss    float64            `json:"final_loss"`
	LossSteps    int                `json:"final_loss_steps"`
	Fingerprint  fingerprint        `json:"fingerprint"`
	Shares       map[string]float64 `json:"step_shares,omitempty"`
	TracePath    string             `json:"trace_path,omitempty"`
	TracedSpans  int                `json:"traced_spans,omitempty"`
}

// setUp starts a job, runs its first step (which ends the set-up) and the
// remaining fingerprint steps, and returns the set-up seconds.
func setUp(wl *workload, seed int64, epoch time.Time) (*job, float64, fingerprint, error) {
	t0 := time.Now()
	j, err := startJob(wl, seed, epoch)
	if err != nil {
		return nil, 0, fingerprint{}, err
	}
	if err := j.step(); err != nil {
		j.close()
		return nil, 0, fingerprint{}, err
	}
	setup := time.Since(t0).Seconds()
	if err := j.steps(fingerprintSteps - 1); err != nil {
		j.close()
		return nil, 0, fingerprint{}, err
	}
	fp, err := j.fingerprint()
	if err != nil {
		j.close()
		return nil, 0, fingerprint{}, err
	}
	return j, setup, fp, nil
}

// maxSteps bounds the preallocated per-step history of one timed run.
const maxSteps = 1 << 16

// failed turns an error into a failing result in which every attempted step
// counts as failed.
func failed(attempted int, rep *report, err error) (result, *report, error) {
	if attempted < 1 {
		attempted = 1
	}
	return result{Correct: false, Attempted: attempted, Failed: attempted, Metrics: map[string]metric{}}, rep, err
}

// finalLoss is the mean loss of the last quarter of the timed steps.
func finalLoss(losses []float64, timed int) (float64, int) {
	n := timed / 4
	if n < 1 {
		n = 1
	}
	var sum float64
	for _, l := range losses[len(losses)-n:] {
		sum += l
	}
	return sum / float64(n), n
}

func runUntraced(wl *workload, seed int64, d time.Duration) (result, *report, error) {
	rep := &report{Workload: wl.name, Seed: seed, Ranks: wl.ranks, GlobalBatch: wl.ranks * wl.cfg.BatchPerDevice}
	var j *job
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		ji, setup, fp, err := setUp(wl, seed, time.Time{})
		if err != nil {
			return failed(fingerprintSteps, rep, fmt.Errorf("set-up %d: %w", i, err))
		}
		rep.SetupSamples = append(rep.SetupSamples, setup)
		if i == 0 {
			rep.Fingerprint = fp
		} else if fp != rep.Fingerprint {
			ji.close()
			return failed(fingerprintSteps, rep, fmt.Errorf("set-up %d fingerprint %+v differs from set-up 0's %+v at one seed", i, fp, rep.Fingerprint))
		}
		if i < setupRepeats-1 {
			ji.close()
		} else {
			j = ji
		}
	}
	defer j.close()
	if err := j.steps(wl.warmup); err != nil {
		return failed(1, rep, fmt.Errorf("warm-up: %w", err))
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	times, elapsed, err := j.timed(d, wl.minSteps)
	runtime.ReadMemStats(&m1)
	rep.StepSamples = len(times)
	if err != nil {
		return failed(len(times)+1, rep, err)
	}
	if _, err := j.weightsCRC(); err != nil {
		return failed(len(times), rep, err)
	}
	rep.FirstLoss = j.losses[0]
	rep.FinalLoss, rep.LossSteps = finalLoss(j.losses, len(times))
	if !(rep.FinalLoss < rep.FirstLoss) {
		return failed(len(times), rep, fmt.Errorf("final loss %v is not below the first step's %v", rep.FinalLoss, rep.FirstLoss))
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	n := float64(len(times))
	metrics := map[string]metric{
		"images_per_s":    {n * float64(rep.GlobalBatch) / elapsed.Seconds(), "images/s"},
		"step_ms_p50":     {percentile(times, 0.50), "ms"},
		"step_ms_p95":     {percentile(times, 0.95), "ms"},
		"setup_s":         {median(rep.SetupSamples), "s"},
		"allocs_per_step": {float64(m1.Mallocs-m0.Mallocs) / n, "count"},
		"heap_live_mb":    {float64(live.HeapAlloc) / (1 << 20), "MiB"},
		"final_loss":      {rep.FinalLoss, "nats"},
	}
	return result{Correct: true, Attempted: len(times), Failed: 0, Metrics: metrics}, rep, nil
}

// percentile returns the q-quantile of v by linear interpolation between
// closest ranks.
func percentile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 0.5) }
