// Package core implements the paper's primary contribution: the optimized
// data-parallel synchronous SGD engine of Algorithm 1, wiring together the
// DIMD in-memory data store (internal/dimd), the multi-color allreduce
// (internal/allreduce) and the optimized Data-Parallel Table
// (internal/dpt).
//
// One Learner is one MPI process on one compute node driving m local
// devices. Each training iteration: the learner samples its share of the
// global batch from its in-memory store, the DPT engine computes per-device
// gradients, gradients are summed intra-node, summed across learners with
// the configured MPI allreduce, broadcast back to the devices, and every
// device applies the SGD update — leaving all replicas bitwise identical.
//
// The step has two execution paths (docs/ARCHITECTURE.md maps them side by
// side):
//
//   - uncompressed (no codec): the strictly sequential Algorithm 1 above,
//     with the Config.Allreduce algorithm — the paper's multicolor trees by
//     default.
//   - bucketed (buckets.go): every learner with a codec — set explicitly, or
//     implied by Overlap, ShardOptimizer or Topology — reduces fixed-size
//     gradient buckets through one allreduce.Stream, then runs one tail
//     (error-feedback commit, scale, optimizer step) after the last bucket
//     lands.
//
// The options only parameterize the bucketed path:
//
//   - Config.Overlap is a launch policy: buckets launch from the readiness
//     hook while backward is still computing earlier layers, instead of
//     all at once after it. Same arithmetic, same bits, less exposed
//     communication time.
//   - Config.ShardOptimizer (sharded.go) is an owner set: ZeRO-1 — each
//     bucket is reduced only on the ranks whose parameter shard it
//     overlaps, each rank updates only its shard with shard-local momentum,
//     and the updated parameters are allgathered back.
//   - Config.Topology routes the exchange over the rank→node layout — node
//     members to their node leader, leaders chaining partials across the
//     inter-node fabric — multiplying down slow-link traffic. It changes
//     routing, never arithmetic.
//
// Under the same compression config all combinations produce
// bitwise-identical parameters.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/dimd"
	"repro/internal/dpt"
	"repro/internal/imagecodec"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// BatchSource produces one local mini-batch per call into x (shape
// [Bnode, C, H, W]) and labels. Implementations: DIMDSource (the paper's
// in-memory path), SliceSource (deterministic, for equivalence tests), and
// any test double.
type BatchSource interface {
	NextBatch(x *tensor.Tensor, labels []int) error
}

// DIMDSource samples random batches from a learner's DIMD store, decoding
// and augmenting on the fly — the paper's Figure 1 data path.
type DIMDSource struct {
	Store *dimd.Store
	Aug   imagecodec.Augment
	RNG   *tensor.RNG
}

// NextBatch implements BatchSource.
func (s *DIMDSource) NextBatch(x *tensor.Tensor, labels []int) error {
	return s.Store.SampleTensors(s.RNG, s.Aug, x, labels)
}

// FileSource samples batches from the baseline file-per-image layout
// (dimd.FileStore) — the I/O path whose random small reads the paper
// identifies as the scaling bottleneck that DIMD removes.
type FileSource struct {
	Store *dimd.FileStore
	Aug   imagecodec.Augment
	RNG   *tensor.RNG
}

// NextBatch implements BatchSource.
func (s *FileSource) NextBatch(x *tensor.Tensor, labels []int) error {
	batch, err := s.Store.RandomBatch(s.RNG, x.Dim(0))
	if err != nil {
		return err
	}
	return dimd.DecodeToTensors(batch, s.RNG, s.Aug, x, labels)
}

// SliceSource deals deterministic slices of a fixed dataset: on step t,
// learner rank of numRanks receives rows
// [t·B + rank·Bnode, t·B + (rank+1)·Bnode) mod N. It makes the distributed
// run process exactly the same global batch as a serial run, which the
// serial-vs-distributed equivalence tests rely on.
type SliceSource struct {
	X      *tensor.Tensor // full dataset [N, C, H, W]
	Labels []int
	Rank   int
	Ranks  int
	// StartStep offsets the dealing clock: the first NextBatch serves the
	// rows of global step StartStep. A run resumed from a checkpoint at
	// step k sets StartStep=k so the data stream continues where the
	// snapshot left off — with GlobalBatch held constant, the union over
	// ranks is then the same global batch sequence at any world size,
	// which keeps post-recovery loss trajectories comparable to a
	// failure-free run.
	StartStep int
	step      int
}

// NextBatch implements BatchSource. When the dataset size is not a multiple
// of the global batch, slices wrap around the end of the dataset; wrapping
// is deterministic, so the serial-vs-distributed alignment still holds.
func (s *SliceSource) NextBatch(x *tensor.Tensor, labels []int) error {
	bNode := x.Dim(0)
	n := s.X.Dim(0)
	if bNode > n {
		return fmt.Errorf("core: node batch %d larger than dataset %d", bNode, n)
	}
	start := ((s.StartStep+s.step)*bNode*s.Ranks + s.Rank*bNode) % n
	rowLen := s.X.Len() / n
	first := bNode
	if start+first > n {
		first = n - start
	}
	copy(x.Data, s.X.Data[start*rowLen:(start+first)*rowLen])
	copy(labels, s.Labels[start:start+first])
	if rest := bNode - first; rest > 0 {
		copy(x.Data[first*rowLen:], s.X.Data[:rest*rowLen])
		copy(labels[first:], s.Labels[:rest])
	}
	s.step++
	return nil
}

// Config assembles a learner.
type Config struct {
	// BatchPerDevice is the paper's k (64 default, 32 for the record run).
	BatchPerDevice int
	// Allreduce selects the gradient-summation algorithm.
	Allreduce allreduce.Algorithm
	// AllreduceOpts tunes it.
	AllreduceOpts allreduce.Options
	// Schedule maps epochs to learning rates.
	Schedule sgd.Schedule
	// SGD sets momentum/weight decay.
	SGD sgd.Config
	// StepsPerEpoch converts the step counter to fractional epochs for the
	// schedule. Zero means LR(0) throughout.
	StepsPerEpoch int
	// GradScale overrides the default 1/(ranks·devices) gradient scaling
	// when nonzero (tests use 1 to inspect raw sums).
	GradScale float32
	// Compression, when its Codec is set, routes the inter-node gradient
	// exchange through the bucketed compressed allreduce instead of the
	// Allreduce algorithm above. Codec "none" keeps values exact while using
	// the same bucketed path (for byte-accounting comparisons); "int8" and
	// "topk" are lossy and usually pair with ErrorFeedback.
	Compression compress.Config
	// Overlap launches gradient buckets as backward compute finalizes them:
	// each is intra-node reduced, compressed and sent into the asynchronous
	// inter-node exchange while earlier layers are still computing, instead
	// of all buckets being launched after backward. The SGD update still
	// runs once, after the last bucket lands. The final parameters are
	// bitwise identical to the phased bucketed path with the same
	// Compression config (an empty Codec behaves like "none": the exact
	// identity codec over the bucketed transport). Bucket size comes from
	// Compression.BucketFloats (default 16384 floats).
	Overlap bool
	// OverlapInFlight caps how many buckets the bucketed exchange keeps in
	// flight at once (default 8), with or without Overlap.
	OverlapInFlight int
	// ShardOptimizer enables ZeRO-1-style sharded data parallelism: each
	// rank owns a contiguous shard of whole parameters (balanced by element
	// count), holds only that shard's momentum, and applies only its shard's
	// update. The step becomes reduce-scatter (each gradient bucket's
	// compressed payload travels only to its shard owners) → local shard
	// update after the last bucket lands → allgather of the updated
	// parameters, instead of allreduce → full update — so per-rank
	// optimizer-state memory and update cost scale as ~1/world-size. The
	// gradient exchange runs the bucketed codec path (Compression; an empty
	// Codec means the exact identity codec, like Overlap), composes with
	// error feedback and with Overlap, and the final parameters are bitwise
	// identical to the replicated path under the same Compression config.
	ShardOptimizer bool
	// Topology, when set, is the rank→node layout of the cluster (e.g.
	// mpi.UniformTopology(learners, ranksPerNode)): the gradient exchange
	// then routes every bucket hierarchically — node members talk only to
	// their node's leader, leaders chain partial sums across the
	// inter-node fabric, and the result fans back out — so slow-link
	// traffic per bucket drops from (world-1) payloads per rank to
	// O(nodes) messages in total. The exchange always runs the bucketed
	// codec path (an empty Codec means the exact identity codec, like
	// Overlap), composes with Compression, Overlap, and ShardOptimizer,
	// and the final parameters are bitwise identical to the flat exchange
	// under the same config: the leader chain folds decoded payloads in
	// global rank order, exactly like the flat path.
	Topology mpi.Topology
}

// PhaseTimes accumulates wall time per Algorithm 1 phase — the step
// decomposition the paper's evaluation reasons about (data loading vs
// compute vs communication). All fields are cumulative seconds.
//
// IntraNode is measured only on the uncompressed path: the bucketed path
// reduces each bucket intra-node inside its exchange pipeline, so that time
// lands in AllReduce (or, under Config.Overlap, partly under Compute).
// There, Update is the tail's optimizer step and AllReduce is all other
// time after backward — the exposed exchange, the error-feedback commit
// and, when sharded, the parameter allgather. A shrinking AllReduce share
// against the phased baseline is the overlap win.
type PhaseTimes struct {
	Data      float64 // batch sampling/decoding (DIMD or file I/O)
	Compute   float64 // per-device forward/backward via the DPT engine
	IntraNode float64 // intra-node gradient summation (uncompressed path)
	AllReduce float64 // inter-node exchange and everything else after backward
	Update    float64 // gradient broadcast to devices + SGD step
}

// Total returns the sum over phases.
func (p PhaseTimes) Total() float64 {
	return p.Data + p.Compute + p.IntraNode + p.AllReduce + p.Update
}

// Learner is one node of the distributed trainer.
type Learner struct {
	comm    *mpi.Comm
	engine  *dpt.Engine
	source  BatchSource
	cfg     Config
	opts    []*sgd.SGD
	gradBuf []float32
	x       *tensor.Tensor
	labels  []int
	step    int
	scale   float32
	phases  PhaseTimes

	// Bucketed-step state (nil/empty on the uncompressed path); see
	// buckets.go.
	codec     compress.Codec
	plan      *bucketPlan
	feedback  *compress.Feedback // nil without error feedback or with a lossless codec
	commStats allreduce.CompressedStats

	// Sharded-optimizer state (nil/empty when ShardOptimizer is off); see
	// sharded.go. elemBounds is the param-aligned shard layout (length
	// Size+1); shardOpt updates only this rank's shard of device 0's
	// replica; flatParams is the allgather staging buffer.
	elemBounds   []int
	shardOpt     *sgd.SGD
	flatParams   []float32
	paramAGBytes int64 // cumulative parameter-allgather wire bytes (send+recv)

	// topo is the hierarchical routing layout (nil when Config.Topology is
	// unset); handed to every bucketed exchange the learner launches.
	topo *mpi.Topology
}

// NewLearner constructs a learner over comm from per-device model replicas.
// Rank 0's weights are broadcast so every replica in the job starts
// identical (Algorithm 1's "initialize W with identical values on all
// GPUs"). inputC/H/W describe the model input (3×224×224 for the paper's
// models; smaller for the functional experiments).
func NewLearner(comm *mpi.Comm, replicas []nn.Layer, source BatchSource, inputC, inputH, inputW int, cfg Config) (*Learner, error) {
	if cfg.BatchPerDevice <= 0 {
		return nil, errors.New("core: BatchPerDevice must be positive")
	}
	if cfg.Schedule == nil {
		cfg.Schedule = sgd.Const(0.1)
	}
	if cfg.Allreduce == "" {
		cfg.Allreduce = allreduce.AlgMultiColor
	}
	engine, err := dpt.New(replicas, true)
	if err != nil {
		return nil, err
	}
	l := &Learner{
		comm:    comm,
		engine:  engine,
		source:  source,
		cfg:     cfg,
		gradBuf: make([]float32, engine.GradSize()),
	}
	if cfg.Topology.IsSet() {
		if err := cfg.Topology.Validate(comm.Size()); err != nil {
			engine.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		l.topo = &cfg.Topology
	}
	if cfg.Compression.Enabled() || cfg.Overlap || cfg.ShardOptimizer || l.topo != nil {
		codec, err := compress.New(cfg.Compression)
		if err != nil {
			engine.Close()
			return nil, err
		}
		l.codec = codec
		l.plan = newBucketPlan(engine, cfg.Compression.BucketFloats)
		if cfg.Compression.Enabled() {
			engine.SetCompression(cfg.Compression)
		}
		if cfg.Compression.ErrorFeedback && compress.Lossy(codec) {
			l.feedback = compress.NewFeedback(engine.GradSize())
		}
	}
	m := engine.NumDevices()
	bNode := cfg.BatchPerDevice * m
	l.x = tensor.New(bNode, inputC, inputH, inputW)
	l.labels = make([]int, bNode)
	l.scale = cfg.GradScale
	if l.scale == 0 {
		l.scale = 1 / float32(comm.Size()*m)
	}
	if cfg.ShardOptimizer {
		var paramBounds []int
		paramBounds, l.elemBounds = paramShardBounds(engine, comm.Size())
		rank := comm.Rank()
		l.shardOpt = sgd.NewShard(engine.Params(0), cfg.SGD, paramBounds[rank], paramBounds[rank+1])
		l.flatParams = make([]float32, engine.GradSize())
	} else {
		for d := 0; d < m; d++ {
			l.opts = append(l.opts, sgd.New(engine.Params(d), cfg.SGD))
		}
	}
	if err := l.broadcastInitialWeights(); err != nil {
		engine.Close()
		return nil, err
	}
	return l, nil
}

// broadcastInitialWeights synchronizes rank 0's replica-0 weights to every
// device on every learner.
func (l *Learner) broadcastInitialWeights() error {
	flat := make([]float32, l.engine.GradSize())
	if l.comm.Rank() == 0 {
		if err := nn.FlattenValues(l.engine.Params(0), flat); err != nil {
			return err
		}
	}
	var payload []byte
	if l.comm.Rank() == 0 {
		payload = mpi.Float32sToBytes(flat)
	}
	got, err := l.comm.Bcast(0, payload)
	if err != nil {
		return err
	}
	if len(got) != 4*len(flat) {
		return fmt.Errorf("core: weight bcast got %d bytes, want %d", len(got), 4*len(flat))
	}
	mpi.DecodeFloat32s(flat, got)
	return l.engine.SetValues(flat)
}

// Step runs one iteration of Algorithm 1 and returns this learner's local
// mean loss. Per-phase wall times accumulate in Phases. With a codec the
// body below is replaced by the bucketed step (buckets.go); under the
// "none" codec it produces bitwise-identical parameters.
func (l *Learner) Step() (float64, error) {
	// 1. Sample Bnode images locally (random from the in-memory store).
	t0 := time.Now()
	if err := l.source.NextBatch(l.x, l.labels); err != nil {
		return 0, fmt.Errorf("core: sampling batch: %w", err)
	}
	t1 := time.Now()
	l.phases.Data += t1.Sub(t0).Seconds()
	if l.plan != nil {
		return l.stepBuckets(t1)
	}
	// 2-3. Per-device forward/backward; intra-node summation.
	loss, err := l.engine.Step(l.x, l.labels)
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	l.phases.Compute += t2.Sub(t1).Seconds()
	if err := l.engine.SumGrads(l.gradBuf); err != nil {
		return 0, err
	}
	t3 := time.Now()
	l.phases.IntraNode += t3.Sub(t2).Seconds()
	// 4. Global inter-node summation (MPI allreduce).
	if err := allreduce.AllReduce(l.comm, l.gradBuf, l.cfg.Allreduce, l.cfg.AllreduceOpts); err != nil {
		return 0, fmt.Errorf("core: allreduce: %w", err)
	}
	t4 := time.Now()
	l.phases.AllReduce += t4.Sub(t3).Seconds()
	// Normalize the sum of per-device partition means to the global batch
	// mean so the learning rate has the Goyal semantics.
	if l.scale != 1 {
		for i := range l.gradBuf {
			l.gradBuf[i] *= l.scale
		}
	}
	// 5. Broadcast to local devices; 6. each device performs SGD.
	if err := l.engine.SetGrads(l.gradBuf); err != nil {
		return 0, err
	}
	lr := l.currentLR()
	for _, o := range l.opts {
		o.Step(lr)
	}
	l.phases.Update += time.Since(t4).Seconds()
	l.step++
	return loss, nil
}

// Phases returns the cumulative per-phase wall times.
func (l *Learner) Phases() PhaseTimes { return l.phases }

// CommStats returns the cumulative compressed-allreduce traffic counters
// (zero when compression is off).
func (l *Learner) CommStats() allreduce.CompressedStats { return l.commStats }

func (l *Learner) currentLR() float32 {
	epoch := 0.0
	if l.cfg.StepsPerEpoch > 0 {
		epoch = float64(l.step) / float64(l.cfg.StepsPerEpoch)
	}
	return float32(l.cfg.Schedule.LR(epoch))
}

// StepCount returns the number of completed steps.
func (l *Learner) StepCount() int { return l.step }

// Engine exposes the DPT engine (weights, stats).
func (l *Learner) Engine() *dpt.Engine { return l.engine }

// FlatWeights returns a copy of the current model weights.
func (l *Learner) FlatWeights() ([]float32, error) {
	flat := make([]float32, l.engine.GradSize())
	if err := nn.FlattenValues(l.engine.Params(0), flat); err != nil {
		return nil, err
	}
	return flat, nil
}

// Evaluate computes top-1 accuracy and mean loss of the current model over
// the given tensors.
func (l *Learner) Evaluate(x *tensor.Tensor, labels []int) (acc float64, loss float64, err error) {
	logits, err := l.engine.Predict(x)
	if err != nil {
		return 0, 0, err
	}
	crit := nn.NewSoftmaxCrossEntropy()
	loss, err = crit.Forward(logits, labels)
	if err != nil {
		return 0, 0, err
	}
	return nn.Accuracy(logits, labels), loss, nil
}

// Close releases the device workers.
func (l *Learner) Close() { l.engine.Close() }
