package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// blocks are the parameter-owning top-level children of the workloads'
// models (TinyResNet's stem, stages and classifier; the MLP's three dense
// layers). Every traced run reports all of them; a block its model lacks
// reads 0.
var blocks = []string{"stem.conv", "stem.bn", "s1.b0", "s2.b0", "s3.b0", "fc", "fc1", "fc2", "fc3"}

// runTraced measures the per-layer metrics. An untraced job first runs for
// half of d; a traced job at the same seed then runs exactly as many steps,
// must end on bitwise the same weights, and supplies the spans and counter
// deltas. Its spans are written to tracePath. A last untraced job, run for
// half of d at the other of GOMAXPROCS 1 and defaultProcs, gives the
// speedup the workload gets from the host's processors.
func runTraced(wl *workload, seed int64, d time.Duration, defaultProcs int, tracePath string) (result, *report, error) {
	rep := &report{Workload: wl.name, Seed: seed, Ranks: wl.ranks, GlobalBatch: wl.ranks * wl.cfg.BatchPerDevice}
	plainIPS, steps, plainCRC, err := untracedReference(wl, seed, d/2)
	if err != nil {
		return failed(steps+1, rep, fmt.Errorf("untraced reference: %w", err))
	}
	procs := runtime.GOMAXPROCS(0)
	otherProcs := 1
	if procs == 1 {
		otherProcs = defaultProcs
	}
	otherIPS := plainIPS
	if otherProcs != procs {
		runtime.GOMAXPROCS(otherProcs)
		otherIPS, _, _, err = untracedReference(wl, seed, d/2)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return failed(1, rep, fmt.Errorf("untraced run at GOMAXPROCS %d: %w", otherProcs, err))
		}
	}
	speedup := plainIPS / otherIPS
	if procs == 1 {
		speedup = otherIPS / plainIPS
	}

	runtime.GC()
	epoch := time.Now()
	j, _, fp, err := setUp(wl, seed, epoch)
	if err != nil {
		return failed(1, rep, fmt.Errorf("traced set-up: %w", err))
	}
	defer j.close()
	rep.Fingerprint = fp
	if err := j.steps(wl.warmup); err != nil {
		return failed(1, rep, fmt.Errorf("traced warm-up: %w", err))
	}
	first := j.next
	phases := make([][]core.PhaseTimes, len(j.ranks))
	for r := range phases {
		phases[r] = make([]core.PhaseTimes, 0, steps+1)
	}
	snapPhases := func() {
		for r, rk := range j.ranks {
			phases[r] = append(phases[r], rk.l.Phases())
		}
	}
	c0 := j.counters()
	snapPhases()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for i := 0; i < steps; i++ {
		if err := j.step(); err != nil {
			return failed(i+1, rep, err)
		}
		snapPhases()
	}
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&m1)
	c1 := j.counters()
	rep.StepSamples = steps

	crc, err := j.weightsCRC()
	if err != nil {
		return failed(steps, rep, err)
	}
	if crc != plainCRC {
		return failed(steps, rep, fmt.Errorf("traced run ended on weights CRC %08x, untraced run on %08x", crc, plainCRC))
	}
	rep.FirstLoss = j.losses[0]
	rep.FinalLoss, rep.LossSteps = finalLoss(j.losses, steps)
	if !(rep.FinalLoss < rep.FirstLoss) {
		return failed(steps, rep, fmt.Errorf("final loss %v is not below the first step's %v", rep.FinalLoss, rep.FirstLoss))
	}

	var spans []span
	for _, rk := range j.ranks {
		spans = append(spans, rk.learnerRec.spans...)
		spans = append(spans, rk.deviceRec.spans...)
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	if err := writeChromeTrace(tracePath, spans); err != nil {
		return failed(steps, rep, err)
	}
	rep.TracePath, rep.TracedSpans = tracePath, len(spans)

	tracedIPS := float64(steps*rep.GlobalBatch) / elapsed.Seconds()
	metrics := layerMetrics(spans, first, steps, len(j.ranks), phases, c0, c1)
	metrics["runtime.gc_pause_ms_per_step"] = metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / float64(steps), "ms"}
	metrics["trace.overhead_ratio"] = metric{tracedIPS / plainIPS, "ratio"}
	metrics["runtime.multi_proc_speedup"] = metric{speedup, "ratio"}
	rep.Shares = shares(metrics)
	return result{Correct: true, Attempted: steps, Failed: 0, Metrics: metrics}, rep, nil
}

// untracedReference runs the workload untraced for d and returns its
// throughput, timed step count and final weights CRC.
func untracedReference(wl *workload, seed int64, d time.Duration) (ips float64, steps int, crc uint32, err error) {
	runtime.GC()
	j, _, _, err := setUp(wl, seed, time.Time{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer j.close()
	if err := j.steps(wl.warmup); err != nil {
		return 0, 0, 0, err
	}
	times, elapsed, err := j.timed(d, wl.minSteps)
	if err != nil {
		return 0, len(times), 0, err
	}
	crc, err = j.weightsCRC()
	if err != nil {
		return 0, len(times), 0, err
	}
	return float64(len(times)*wl.ranks*wl.cfg.BatchPerDevice) / elapsed.Seconds(), len(times), crc, nil
}

// layerMetrics turns the timed steps' spans and counter deltas into
// per-step per-layer metrics (times are means over steps and ranks).
func layerMetrics(spans []span, first int32, steps, ranks int, phases [][]core.PhaseTimes, c0, c1 counters) map[string]metric {
	perRankStep := float64(steps * ranks)
	var stepNs, batchNs, fwdNs, bwdNs float64
	blockNs := map[string]float64{}
	for _, sp := range spans {
		if sp.step < first {
			continue
		}
		dur := float64(sp.end - sp.start)
		switch {
		case sp.name == spanStep:
			stepNs += dur
		case sp.name == spanNextBatch:
			batchNs += dur
		case strings.HasSuffix(sp.name, ".forward"):
			fwdNs += dur
			blockNs[sp.name] += dur
		case strings.HasSuffix(sp.name, ".backward"):
			bwdNs += dur
			blockNs[sp.name] += dur
		}
	}
	ms := func(ns float64) float64 { return ns / 1e6 / perRankStep }
	m := map[string]metric{
		"core.step_ms":        {ms(stepNs), "ms"},
		"core.step_self_ms":   {ms(stepNs - batchNs - fwdNs - bwdNs), "ms"},
		"dimd.next_batch_ms":  {ms(batchNs), "ms"},
		"nn.forward_ms":       {ms(fwdNs), "ms"},
		"nn.backward_ms":      {ms(bwdNs), "ms"},
		"core.rank_skew_ms":   {rankSkewMs(phases), "ms"},
		"sgd.opt_state_bytes": {0, "bytes"},
	}
	for _, b := range blocks {
		m["nn."+b+".forward_ms"] = metric{ms(blockNs["nn."+b+".forward"]), "ms"}
		m["nn."+b+".backward_ms"] = metric{ms(blockNs["nn."+b+".backward"]), "ms"}
	}

	var ph core.PhaseTimes
	var sent, raw, staged, agBytes int64
	for r := 0; r < ranks; r++ {
		a, b := c0.phases[r], c1.phases[r]
		ph.Data += b.Data - a.Data
		ph.Compute += b.Compute - a.Compute
		ph.IntraNode += b.IntraNode - a.IntraNode
		ph.AllReduce += b.AllReduce - a.AllReduce
		ph.Update += b.Update - a.Update
		sent += c1.comm[r].BytesSent - c0.comm[r].BytesSent
		raw += c1.comm[r].RawBytes - c0.comm[r].RawBytes
		staged += c1.engine[r].BytesMoved - c0.engine[r].BytesMoved
		agBytes += c1.paramAG[r] - c0.paramAG[r]
		if v := float64(c1.optState[r]); v > m["sgd.opt_state_bytes"].Value {
			m["sgd.opt_state_bytes"] = metric{v, "bytes"}
		}
	}
	secMs := func(s float64) float64 { return s * 1e3 / perRankStep }
	m["dpt.compute_ms"] = metric{secMs(ph.Compute), "ms"}
	m["dpt.overhead_ms"] = metric{secMs(ph.Compute) - ms(fwdNs+bwdNs), "ms"}
	m["dpt.intra_ms"] = metric{secMs(ph.IntraNode), "ms"}
	m["allreduce.exposed_ms"] = metric{secMs(ph.AllReduce), "ms"}
	m["sgd.update_ms"] = metric{secMs(ph.Update), "ms"}

	n := float64(steps)
	// Every byte sent is received once, so the allgather's bytes sent are
	// half of its send+recv counter summed over ranks.
	agSent := agBytes / 2
	wire := (c1.traffic.IntraBytes + c1.traffic.InterBytes) - (c0.traffic.IntraBytes + c0.traffic.InterBytes)
	if !c1.counted {
		// Count the learners' payloads instead.
		wire = sent + agSent
	}
	exchange := sent
	if c1.comm[0].Buckets == c0.comm[0].Buckets {
		// The plain (unbucketed) allreduce has no counter of its own; it is
		// the only traffic of the step.
		exchange = wire
	}
	ratio := 1.0
	if sent > 0 {
		ratio = float64(raw) / float64(sent)
	}
	m["allreduce.wire_bytes_per_step"] = metric{float64(exchange) / n, "bytes"}
	m["allreduce.buckets_per_step"] = metric{float64(c1.comm[0].Buckets-c0.comm[0].Buckets) / n, "count"}
	m["allreduce.param_allgather_bytes_per_step"] = metric{float64(agSent) / n, "bytes"}
	m["compress.ratio"] = metric{ratio, "ratio"}
	m["mpi.bytes_per_step"] = metric{float64(wire) / n, "bytes"}
	m["dpt.input_bytes_per_step"] = metric{float64(staged) / n, "bytes"}
	return m
}

// rankSkewMs is the mean over steps of the spread (max - min) of the ranks'
// data + compute time, the work each rank does before it must wait for the
// others.
func rankSkewMs(phases [][]core.PhaseTimes) float64 {
	steps := len(phases[0]) - 1
	if steps < 1 {
		return 0
	}
	var total float64
	for t := 1; t <= steps; t++ {
		lo, hi := 0.0, 0.0
		for r := range phases {
			a, b := phases[r][t-1], phases[r][t]
			v := (b.Data - a.Data) + (b.Compute - a.Compute)
			if r == 0 || v < lo {
				lo = v
			}
			if r == 0 || v > hi {
				hi = v
			}
		}
		total += hi - lo
	}
	return total * 1e3 / float64(steps)
}

// shares expresses the traced step's main parts as fractions of
// core.step_ms, for the report.
func shares(m map[string]metric) map[string]float64 {
	step := m["core.step_ms"].Value
	if step <= 0 {
		return nil
	}
	out := map[string]float64{}
	for _, k := range []string{"nn.forward_ms", "nn.backward_ms", "dpt.overhead_ms", "dpt.intra_ms", "allreduce.exposed_ms", "sgd.update_ms", "dimd.next_batch_ms", "core.step_self_ms"} {
		out[k] = m[k].Value / step
	}
	out["nn.forward_ms+nn.backward_ms"] = (m["nn.forward_ms"].Value + m["nn.backward_ms"].Value) / step
	return out
}
