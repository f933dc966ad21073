package main

import (
	"fmt"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dimd"
	"repro/internal/imagecodec"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// workload is one named training job the benchmark runs: a model, a data
// path and a learner configuration on a fixed world of ranks × 1 device.
type workload struct {
	name string
	// ranks is the world size; every rank drives one device.
	ranks int
	// tcp runs the ranks over loopback mpi.TCPWorld sockets instead of an
	// in-process topology world.
	tcp bool
	// procs, when non-zero, pins GOMAXPROCS for the run (0 keeps the
	// default). The MLP workloads pin 1: with more, their step time flips
	// between two scheduling modes ~1.5x apart (see README.md), and runs
	// could not be compared.
	procs int
	// inSize is the square input side fed to the model (3 channels).
	inSize int
	cfg    core.Config
	// newModel builds one replica; rank 0's weights are broadcast.
	newModel func(seed int64) *nn.Sequential
	// newData generates the seeded inputs and returns each rank's source.
	newData func(seed int64, ranks int) (func(rank int) core.BatchSource, error)
	// warmup steps run after the fingerprint step and before timing, so
	// buffer pools and layer scratch reach steady state.
	warmup int
	// minSteps is the fewest timed steps a run makes, however slow the host,
	// so step_ms_p95 always has at least ten samples beyond it.
	minSteps int
}

const classes = 10

// fingerprintSteps is the step count at which every set-up of a run is
// fingerprinted (weights CRC, byte and bucket counters); the fingerprints
// of one seed must repeat exactly.
const fingerprintSteps = 3

var workloads = []*workload{
	{
		name:   "resnet-dimd",
		ranks:  2,
		inSize: 16,
		cfg: core.Config{
			BatchPerDevice: 8,
			Allreduce:      allreduce.AlgMultiColor,
			Schedule:       sgd.Const(0.05),
			SGD:            sgd.DefaultConfig(),
		},
		newModel: func(seed int64) *nn.Sequential {
			return models.NewTinyResNet(classes, 1, tensor.NewRNG(seed))
		},
		newData:  dimdData,
		warmup:   10,
		minSteps: 200,
	},
	{
		name:   "mlp-int8",
		ranks:  2,
		inSize: 16,
		cfg: core.Config{
			BatchPerDevice: 2,
			Schedule:       sgd.Const(0.01),
			SGD:            sgd.DefaultConfig(),
			Compression: compress.Config{
				Codec:         "int8",
				ErrorFeedback: true,
				BucketFloats:  16384,
			},
		},
		procs:    1,
		newModel: mlpModel,
		newData:  sliceData,
		warmup:   50,
		minSteps: 200,
	},
	{
		name:   "mlp-tcp-overlap-shard",
		ranks:  2,
		tcp:    true,
		inSize: 16,
		cfg: core.Config{
			BatchPerDevice: 2,
			Schedule:       sgd.Const(0.01),
			SGD:            sgd.DefaultConfig(),
			Compression: compress.Config{
				Codec:        "bf16",
				BucketFloats: 16384,
			},
			Overlap:        true,
			ShardOptimizer: true,
		},
		procs:    1,
		newModel: mlpModel,
		newData:  sliceData,
		warmup:   50,
		minSteps: 200,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func mlpModel(seed int64) *nn.Sequential {
	return core.AllocBenchModel(classes, 16, seed).(*nn.Sequential)
}

// dimdImages is the size of the codec-encoded corpus packed into DIMD; each
// rank holds half of it in memory.
const dimdImages = 256

// dimdData renders a synthetic corpus of 24×24 images, encodes each through
// the image codec, packs them into one DIMD pack and partitions it over the
// ranks. Every step then decodes and augments 16×16 random crops.
func dimdData(seed int64, ranks int) (func(rank int) core.BatchSource, error) {
	corpus, err := dataset.New(dataset.Spec{Classes: classes, Train: dimdImages, Val: 1, Size: 24, Seed: seed})
	if err != nil {
		return nil, err
	}
	pack := dimd.Build(dimdImages, func(i int) (int, []byte) {
		return corpus.Label(i), corpus.EncodedImage(i, 80)
	})
	stores := make([]*dimd.Store, ranks)
	for r := range stores {
		if stores[r], err = dimd.LoadPartition(pack, r, ranks); err != nil {
			return nil, err
		}
	}
	aug := imagecodec.Augment{Crop: 16, Mean: [3]float32{0.5, 0.5, 0.5}, Std: [3]float32{0.25, 0.25, 0.25}}
	return func(rank int) core.BatchSource {
		src := &core.DIMDSource{Store: stores[rank], Aug: aug, RNG: tensor.NewRNG(seed*1009 + int64(rank))}
		return newNoisyLabels(src, seed, rank)
	}, nil
}

// sliceImages is the size of the synthetic tensor dataset the MLP workloads
// deal deterministic slices of.
const sliceImages = 512

func sliceData(seed int64, ranks int) (func(rank int) core.BatchSource, error) {
	x, labels := core.SyntheticTensorData(sliceImages, classes, 16, seed)
	return func(rank int) core.BatchSource {
		return newNoisyLabels(&core.SliceSource{X: x, Labels: labels, Rank: rank, Ranks: ranks}, seed, rank)
	}, nil
}

// labelNoise is the share of labels noisyLabels re-draws uniformly at
// random. The expected loss of the best possible model is then
// -(0.775·ln 0.775 + 9·0.025·ln 0.025) ≈ 1.03 nats.
const labelNoise = 0.25

// noisyLabels re-draws a share of every batch's labels at random on each
// draw. No model can fit labels that change between draws, so the training
// loss settles near the noise floor instead of sinking towards zero as the
// small synthetic sets are memorised; final_loss then compares across seeds
// and run lengths, and still rises when training arithmetic goes wrong.
type noisyLabels struct {
	inner core.BatchSource
	rng   *tensor.RNG
}

func newNoisyLabels(inner core.BatchSource, seed int64, rank int) *noisyLabels {
	return &noisyLabels{inner: inner, rng: tensor.NewRNG(seed*7907 + int64(rank) + 17)}
}

func (s *noisyLabels) NextBatch(x *tensor.Tensor, labels []int) error {
	if err := s.inner.NextBatch(x, labels); err != nil {
		return err
	}
	for i := range labels {
		if s.rng.Float64() < labelNoise {
			labels[i] = s.rng.Intn(classes)
		}
	}
	return nil
}
