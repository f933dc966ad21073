package core

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/dpt"
)

// This file implements the bucketed step every learner with a codec runs.
// The flattened gradient is cut into fixed-size buckets, and each bucket
// flows through one allreduce.Stream:
//
//	ready bucket (Overlap: readiness hook during backward;
//	              phased: every bucket right after backward)
//	   └─ packer: intra-node reduce the bucket, submit it to the Stream
//	      (launch order: descending bucket index, agreed across ranks)
//	        └─ stream: compress (error feedback: + residual, staging the
//	           next residual in the same pass) → Isend/Irecv → decode+sum
//	             └─ collector: copy the sum back over the bucket's gradient
//	then, once the stream drains, one tail:
//	   feedback commit → scale → optimizer step
//	   (ShardOptimizer: the shard step plus the parameter allgather)
//
// Overlap is only a launch policy: it decides when the packer sees a
// bucket ready, never what arithmetic runs. Every stage performs
// element-for-element the same operations in the same order (devices in id
// order, ranks in rank order), so the final parameters are bitwise
// identical across launch policies, shard layouts and topologies — tests
// assert it across codecs.

// bucketPlan is the static bucket layout of one learner's flattened
// gradient, plus the per-learner plumbing the step reuses: the readiness
// channel, the goroutines' error channels and the readiness hook.
type bucketPlan struct {
	lo, hi    []int   // bucket b covers [lo[b], hi[b])
	bucketsOf [][]int // param -> overlapping bucket indices
	contribs  []int   // bucket -> (overlapping param × device) hook calls

	// Per-step scratch, reset at the top of every step (the learner runs
	// one step at a time, so one set suffices): pending[b] is the bucket's
	// outstanding (param × device) contributions, isReady the packer's
	// out-of-order arrival mask.
	mu      sync.Mutex // guards pending against concurrent device hooks
	pending []int
	isReady []bool

	// ready carries bucket indices to the packer; abortBucket tells it the
	// compute failed. One slot per bucket plus the abort always fits, so no
	// sender ever blocks.
	ready            chan int
	packErr, collErr chan error
	hook             dpt.GradHook
}

// abortBucket on the ready channel stops the packer after a failed compute.
const abortBucket = -1

func newBucketPlan(engine *dpt.Engine, bucketFloats int) *bucketPlan {
	if bucketFloats <= 0 {
		bucketFloats = 16384
	}
	total := engine.GradSize()
	nb := (total + bucketFloats - 1) / bucketFloats
	p := &bucketPlan{
		lo:        make([]int, nb),
		hi:        make([]int, nb),
		bucketsOf: make([][]int, engine.NumParams()),
		contribs:  make([]int, nb),
		pending:   make([]int, nb),
		isReady:   make([]bool, nb),
		ready:     make(chan int, nb+1),
		packErr:   make(chan error, 1),
		collErr:   make(chan error, 1),
	}
	for b := 0; b < nb; b++ {
		p.lo[b] = b * bucketFloats
		p.hi[b] = min(p.lo[b]+bucketFloats, total)
	}
	for i := 0; i < engine.NumParams(); i++ {
		pLo, pHi := engine.ParamRange(i)
		for b := pLo / bucketFloats; b*bucketFloats < pHi; b++ {
			p.contribs[b] += engine.NumDevices()
			p.bucketsOf[i] = append(p.bucketsOf[i], b)
		}
	}
	p.hook = p.markReady
	return p
}

// reset readies the per-step scratch. A failed step can leave bucket
// indices or the abort in ready; they are discarded here.
func (p *bucketPlan) reset() {
	copy(p.pending, p.contribs)
	for b := range p.isReady {
		p.isReady[b] = false
	}
	for len(p.ready) > 0 {
		<-p.ready
	}
}

// markReady is the readiness hook: it counts down each bucket's (param ×
// device) contributions and hands every completed bucket to the packer.
func (p *bucketPlan) markReady(dev, param int) {
	fired := false
	p.mu.Lock()
	for _, b := range p.bucketsOf[param] {
		p.pending[b]--
		if p.pending[b] == 0 {
			p.ready <- b
			fired = true
		}
	}
	p.mu.Unlock()
	if fired {
		// Hand the processor to the packer so the bucket's non-blocking
		// exchange launches NOW, not when backward happens to preempt.
		// On a single-core runner this is what lets wire time start
		// ticking under the remaining backward compute; the yield itself
		// costs microseconds against millisecond-scale layers.
		runtime.Gosched()
	}
}

// stepBuckets runs one bucketed iteration. t1 is the batch-sampling end
// time (Data is already accounted).
func (l *Learner) stepBuckets(t1 time.Time) (float64, error) {
	p := l.plan
	// With ShardOptimizer the stream stops at the reduce-scatter boundary:
	// bucket payloads travel only to their shard owners, and buckets this
	// rank does not own surface with a nil Sum (elemBounds is nil otherwise,
	// which keeps the full allreduce exchange).
	stream := allreduce.NewStream(l.comm, l.codec, allreduce.StreamOptions{
		MaxInFlight: l.cfg.OverlapInFlight,
		Feedback:    l.feedback,
		ShardBounds: l.elemBounds,
		Topology:    l.topo,
	})
	p.reset()
	go l.pack(stream)
	go l.collect(stream)

	var loss float64
	var err error
	if l.cfg.Overlap {
		loss, err = l.engine.StepWithGradHook(l.x, l.labels, p.hook)
	} else if loss, err = l.engine.Step(l.x, l.labels); err == nil {
		for b := len(p.lo) - 1; b >= 0; b-- {
			p.ready <- b
		}
	}
	t2 := time.Now()
	l.phases.Compute += t2.Sub(t1).Seconds()
	if err != nil {
		// Hooks have quiesced (the engine joins the devices before erroring).
		p.ready <- abortBucket
	}
	perr := <-p.packErr
	cerr := <-p.collErr
	st, serr := stream.Stats()
	l.commStats.Add(st)
	l.engine.AddAllReduceBytes(st.BytesSent + st.BytesRecv)
	for _, e := range []error{perr, cerr, serr} {
		if err == nil {
			err = e
		}
	}
	if err != nil {
		l.phases.AllReduce += time.Since(t2).Seconds()
		return 0, err
	}

	// The tail. gradBuf holds the global sum over every bucket this rank
	// owns (all of them unless sharded). Every bucket was encoded, so the
	// staged residual is complete; it is rank-local and full-length under
	// sharding too. Committing only here leaves a failed step no trace.
	if l.feedback != nil {
		l.feedback.Commit()
	}
	t3 := time.Now()
	l.phases.AllReduce += t3.Sub(t2).Seconds()
	lo, hi := 0, len(l.gradBuf)
	if l.shardOpt != nil {
		lo, hi = l.shardRange()
	}
	g := l.gradBuf[lo:hi]
	if l.scale != 1 {
		for i := range g {
			g[i] *= l.scale
		}
	}
	lr := l.currentLR()
	if l.shardOpt == nil {
		if err := l.engine.SetGrads(l.gradBuf); err != nil {
			return 0, err
		}
		for _, o := range l.opts {
			o.Step(lr)
		}
		l.phases.Update += time.Since(t3).Seconds()
	} else {
		// Only device 0's replica is read by the shard optimizer; the
		// others receive updated weights through the allgather.
		if err := l.engine.ScatterRangeDev(0, lo, hi, g); err != nil {
			return 0, err
		}
		l.shardOpt.Step(lr)
		t4 := time.Now()
		l.phases.Update += t4.Sub(t3).Seconds()
		if err := l.allGatherParams(); err != nil {
			return 0, err
		}
		l.phases.AllReduce += time.Since(t4).Seconds()
	}
	l.step++
	return loss, nil
}

// pack serializes ready buckets into the launch order agreed across ranks —
// descending bucket index, i.e. backward order — then intra-node reduces
// and submits each. (The Stream's ordering contract forbids launching in
// raw readiness order: with a bounded in-flight window, ranks launching
// different orders can deadlock.)
func (l *Learner) pack(stream *allreduce.Stream) {
	p := l.plan
	defer stream.CloseSend()
	for next := len(p.lo) - 1; next >= 0; {
		b := <-p.ready
		if b == abortBucket {
			break
		}
		p.isReady[b] = true
		for ; next >= 0 && p.isReady[next]; next-- {
			lo, hi := p.lo[next], p.hi[next]
			seg := l.gradBuf[lo:hi]
			if err := l.engine.ReduceRangeInto(seg, lo, hi); err != nil {
				p.packErr <- err
				return
			}
			stream.Submit(next, lo, hi, seg)
		}
	}
	p.packErr <- nil
}

// collect copies every reduced bucket over its range of gradBuf as it lands
// (the stream has already encoded that range) and releases its pooled
// buffer. Buckets a sharded rank does not own carry no Sum.
func (l *Learner) collect(stream *allreduce.Stream) {
	var firstErr error
	for res := range stream.Results() {
		if res.Err != nil && firstErr == nil {
			firstErr = res.Err
		}
		if res.Sum != nil {
			copy(l.gradBuf[res.Lo:res.Hi], res.Sum)
		}
		res.Release()
	}
	l.plan.collErr <- firstErr
}
