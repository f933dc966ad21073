package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/dpt"
	"repro/internal/mpi"
	"repro/internal/nn"
)

// job is one running instance of a workload: a world, one goroutine per
// rank holding a core.Learner, and the channels the driver steps them with.
// Every step is one closed-loop round: the driver starts all ranks and waits
// for all of them, so the slowest rank sets the step time.
type job struct {
	wl      *workload
	world   *mpi.World      // in-process workloads
	tcp     []*mpi.TCPWorld // loopback TCP workloads
	ranks   []*rank
	results chan stepResult
	wg      sync.WaitGroup
	closed  bool

	next   int32     // index of the next step
	losses []float64 // per completed step: the mean of the ranks' losses
	buf    []float64 // per rank, reused
}

// rank is the driver's handle on one rank's goroutine.
type rank struct {
	id  int
	l   *core.Learner
	cmd chan int32 // step index to run; closed to stop
	// learnerRec and deviceRec are nil in untraced jobs.
	learnerRec, deviceRec *recorder
}

type stepResult struct {
	rank int
	loss float64
	err  error
}

// startJob generates the seeded inputs, builds the world and a learner per
// rank (which broadcasts rank 0's weights), and returns once every rank is
// ready to step. With epoch non-zero the job is traced: each rank's replica
// children and batch source are wrapped in span recorders.
func startJob(wl *workload, seed int64, epoch time.Time) (*job, error) {
	sources, err := wl.newData(seed, wl.ranks)
	if err != nil {
		return nil, fmt.Errorf("generating data: %w", err)
	}
	j := &job{
		wl:      wl,
		results: make(chan stepResult, wl.ranks),
		losses:  make([]float64, 0, fingerprintSteps+wl.warmup+maxSteps),
		buf:     make([]float64, wl.ranks),
	}
	comms, err := j.openWorld()
	if err != nil {
		return nil, err
	}
	ready := make(chan error, wl.ranks)
	for r := 0; r < wl.ranks; r++ {
		rk := &rank{id: r, cmd: make(chan int32)}
		model := wl.newModel(seed*7919 + int64(r) + 1)
		source := sources(r)
		if !epoch.IsZero() {
			rk.learnerRec = newRecorder(epoch, r, 0)
			rk.deviceRec = newRecorder(epoch, r, 1)
			wrapChildren(model, rk.deviceRec)
			source = &tracedSource{inner: source, rec: rk.learnerRec}
		}
		j.ranks = append(j.ranks, rk)
		j.wg.Add(1)
		go j.serve(rk, comms[r], model, source, ready)
	}
	var first error
	for r := 0; r < wl.ranks; r++ {
		if err := <-ready; err != nil && first == nil {
			first = err
			j.shutdownWorld() // unblocks ranks still in the weight broadcast
		}
	}
	if first != nil {
		j.close()
		return nil, first
	}
	return j, nil
}

// openWorld builds the transport and returns a communicator constructor per
// rank (called on the rank's goroutine).
func (j *job) openWorld() ([]func() (*mpi.Comm, error), error) {
	n := j.wl.ranks
	comms := make([]func() (*mpi.Comm, error), n)
	if !j.wl.tcp {
		// Zero link profiles cost no wall time but count every wire byte.
		w, err := mpi.NewTopologyWorld(n, mpi.UniformTopology(n, 1), mpi.LinkProfile{}, mpi.LinkProfile{})
		if err != nil {
			return nil, err
		}
		j.world = w
		for r := range comms {
			r := r
			comms[r] = func() (*mpi.Comm, error) { return w.Comm(r) }
		}
		return comms, nil
	}
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		placeholder := make([]string, n)
		for i := range placeholder {
			placeholder[i] = "127.0.0.1:0"
		}
		w, err := mpi.NewTCPWorld(r, placeholder)
		if err != nil {
			j.shutdownWorld()
			return nil, err
		}
		j.tcp = append(j.tcp, w)
		addrs[r] = w.Addr()
	}
	for r, w := range j.tcp {
		w.SetAddrs(addrs)
		comms[r] = w.Comm
	}
	return comms, nil
}

func (j *job) serve(rk *rank, comm func() (*mpi.Comm, error), model *nn.Sequential, source core.BatchSource, ready chan<- error) {
	defer j.wg.Done()
	c, err := comm()
	if err != nil {
		ready <- err
		return
	}
	wl := j.wl
	l, err := core.NewLearner(c, []nn.Layer{model}, source, 3, wl.inSize, wl.inSize, wl.cfg)
	if err != nil {
		ready <- fmt.Errorf("rank %d: %w", rk.id, err)
		return
	}
	defer l.Close()
	rk.l = l
	ready <- nil
	for step := range rk.cmd {
		var loss float64
		if rk.learnerRec == nil {
			loss, err = l.Step()
		} else {
			rk.learnerRec.step, rk.deviceRec.step = step, step
			sp := rk.learnerRec.open(spanStep)
			id := rk.learnerRec.spans[sp].id
			rk.learnerRec.parent, rk.deviceRec.parent = id, id
			loss, err = l.Step()
			rk.learnerRec.close(sp)
		}
		j.results <- stepResult{rank: rk.id, loss: loss, err: err}
	}
}

// step runs one synchronous training step on every rank and records the
// mean of the ranks' losses. A failure on one rank shuts the world down so
// ranks blocked on it fail too instead of hanging.
func (j *job) step() error {
	for _, rk := range j.ranks {
		rk.cmd <- j.next
	}
	var first error
	for range j.ranks {
		res := <-j.results
		j.buf[res.rank] = res.loss
		if res.err != nil && first == nil {
			first = fmt.Errorf("rank %d step %d: %w", res.rank, j.next, res.err)
			j.shutdownWorld()
		}
	}
	if first != nil {
		return first
	}
	var sum float64
	for r, loss := range j.buf {
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			return fmt.Errorf("rank %d step %d: non-finite loss %v", r, j.next, loss)
		}
		sum += loss
	}
	j.losses = append(j.losses, sum/float64(len(j.buf)))
	j.next++
	return nil
}

func (j *job) steps(n int) error {
	for i := 0; i < n; i++ {
		if err := j.step(); err != nil {
			return err
		}
	}
	return nil
}

// timed runs steps until d has elapsed and at least minSteps ran,
// recording each step's wall time in ms.
func (j *job) timed(d time.Duration, minSteps int) ([]float64, time.Duration, error) {
	times := make([]float64, 0, maxSteps)
	begin := time.Now()
	deadline := begin.Add(d)
	for len(times) < maxSteps && (len(times) < minSteps || time.Now().Before(deadline)) {
		t0 := time.Now()
		if err := j.step(); err != nil {
			return times, time.Since(begin), err
		}
		times = append(times, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return times, time.Since(begin), nil
}

func (j *job) shutdownWorld() {
	if j.world != nil {
		j.world.Close()
	}
	for _, w := range j.tcp {
		w.Close()
	}
}

// close stops every rank goroutine and the transport, and waits for the
// goroutines to exit. It must not be called while a step is running.
func (j *job) close() {
	if j.closed {
		return
	}
	j.closed = true
	for _, rk := range j.ranks {
		close(rk.cmd)
	}
	j.wg.Wait()
	j.shutdownWorld()
}

// counters is a snapshot of every public counter the benchmark reads.
type counters struct {
	phases   []core.PhaseTimes
	comm     []allreduce.CompressedStats
	engine   []dpt.Stats
	paramAG  []int64
	optState []int64
	traffic  mpi.Traffic
	// counted is false on TCP worlds, which keep no traffic counter.
	counted bool
}

func (j *job) counters() counters {
	n := len(j.ranks)
	c := counters{
		phases:   make([]core.PhaseTimes, n),
		comm:     make([]allreduce.CompressedStats, n),
		engine:   make([]dpt.Stats, n),
		paramAG:  make([]int64, n),
		optState: make([]int64, n),
	}
	for r, rk := range j.ranks {
		c.phases[r] = rk.l.Phases()
		c.comm[r] = rk.l.CommStats()
		c.engine[r] = rk.l.Engine().Stats()
		c.paramAG[r] = rk.l.ParamAllGatherBytes()
		c.optState[r] = rk.l.OptimizerStateBytes()
	}
	if j.world != nil {
		c.traffic, c.counted = j.world.Traffic(), true
	}
	return c
}

// fingerprint identifies a job's state after a fixed number of steps: the
// weights CRC and the byte and bucket counters must repeat exactly across
// set-ups at one seed.
type fingerprint struct {
	WeightsCRC   uint32 `json:"weights_crc"`
	CommBytes    int64  `json:"comm_bytes"`
	Buckets      int64  `json:"buckets"`
	ParamAGBytes int64  `json:"param_allgather_bytes"`
	WireBytes    int64  `json:"wire_bytes"`
}

// weightsCRC returns the ranks' final weights CRC after checking that every
// rank's replica is bitwise identical to rank 0's.
func (j *job) weightsCRC() (uint32, error) {
	var ref []float32
	for r, rk := range j.ranks {
		w, err := rk.l.FlatWeights()
		if err != nil {
			return 0, err
		}
		if r == 0 {
			ref = w
			continue
		}
		for i := range w {
			if math.Float32bits(w[i]) != math.Float32bits(ref[i]) {
				return 0, fmt.Errorf("rank %d weight %d differs from rank 0 (%v vs %v)", r, i, w[i], ref[i])
			}
		}
	}
	return crcFloats(ref), nil
}

func crcFloats(v []float32) uint32 {
	buf := make([]byte, 4*len(v))
	for i, f := range v {
		b := math.Float32bits(f)
		buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
	}
	return crc32.ChecksumIEEE(buf)
}

func (j *job) fingerprint() (fingerprint, error) {
	crc, err := j.weightsCRC()
	if err != nil {
		return fingerprint{}, err
	}
	c := j.counters()
	fp := fingerprint{WeightsCRC: crc, WireBytes: c.traffic.IntraBytes + c.traffic.InterBytes}
	for r := range j.ranks {
		fp.CommBytes += c.comm[r].BytesSent + c.comm[r].BytesRecv
		fp.Buckets += c.comm[r].Buckets
		fp.ParamAGBytes += c.paramAG[r]
	}
	return fp, nil
}
