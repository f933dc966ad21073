package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// onRanks runs fn for every learner concurrently — one goroutine per rank,
// as the collectives require — and returns the first error.
func onRanks(ls []*Learner, fn func(rank int, l *Learner) error) error {
	errs := make([]error, len(ls))
	var wg sync.WaitGroup
	for r, l := range ls {
		r, l := r, l
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r, l)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// newLearners builds one learner per rank of w, two devices each, on the
// standard small synthetic workload.
func newLearners(t *testing.T, w *mpi.World, ranks int, cfg Config) []*Learner {
	t.Helper()
	const classes, size = 3, 8
	dataX, dataLabels := SyntheticTensorData(32, classes, size, 41)
	ls := make([]*Learner, ranks)
	err := onRanks(ls, func(rank int, _ *Learner) error {
		src := &SliceSource{X: dataX, Labels: dataLabels, Rank: rank, Ranks: ranks}
		l, err := NewLearner(w.MustComm(rank), []nn.Layer{bnFreeCNN(classes, size, 7), bnFreeCNN(classes, size, 7)}, src, 3, size, size, cfg)
		ls[rank] = l
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, l := range ls {
			l.Close()
		}
	})
	return ls
}

// stepAll runs n steps on every learner.
func stepAll(ls []*Learner, n int) error {
	return onRanks(ls, func(_ int, l *Learner) error {
		for s := 0; s < n; s++ {
			if _, err := l.Step(); err != nil {
				return err
			}
		}
		return nil
	})
}

func requireBitwise(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func feedbackConfig(codec string, overlap, shard bool) Config {
	return Config{
		BatchPerDevice: 2,
		Schedule:       sgd.Const(0.1),
		SGD:            sgd.DefaultConfig(),
		Compression:    compress.Config{Codec: codec, ErrorFeedback: true, BucketFloats: 64},
		Overlap:        overlap,
		ShardOptimizer: shard,
	}
}

// TestErrorFeedbackSkipsLosslessCodec: error feedback is enabled only for
// lossy codecs, and leaving it off under the identity codec is invisible —
// training with a residual forced on ends bitwise identical, under every
// schedule. (Finite gradients leave a zero residual; the only trace a
// forced one could leave, -0 turning into +0 in the payload, cannot show in
// a bucket sum that starts at +0.)
func TestErrorFeedbackSkipsLosslessCodec(t *testing.T) {
	const ranks, n = 2, 4
	for _, sched := range []struct {
		name           string
		overlap, shard bool
	}{{"phased", false, false}, {"overlap", true, false}, {"sharded", false, true}} {
		t.Run(sched.name, func(t *testing.T) {
			cfg := feedbackConfig("none", sched.overlap, sched.shard)
			var weights [2][]float32
			for i, forced := range []bool{false, true} {
				w := mpi.NewWorld(ranks)
				defer w.Close()
				ls := newLearners(t, w, ranks, cfg)
				for _, l := range ls {
					if l.feedback != nil {
						t.Fatal("error feedback enabled for the lossless codec")
					}
					if forced {
						l.feedback = compress.NewFeedback(l.engine.GradSize())
					}
				}
				if err := stepAll(ls, n); err != nil {
					t.Fatal(err)
				}
				var err error
				if weights[i], err = ls[0].FlatWeights(); err != nil {
					t.Fatal(err)
				}
			}
			requireBitwise(t, "weight", weights[1], weights[0])
		})
	}
	w := mpi.NewWorld(1)
	defer w.Close()
	if l := newLearners(t, w, 1, feedbackConfig("int8", false, false))[0]; l.feedback == nil {
		t.Fatal("error feedback not enabled for int8")
	}
}

// TestRankDownAfterEncodeLeavesResidual: a peer dies while a step's buckets
// are being encoded and exchanged. The survivor's step fails with
// ErrRankDown, yet its residual — staged bucket by bucket during that step —
// stays bitwise what it was, and so do the weights. Rebound to a live
// communicator (standing in for the one recovery hands a learner), both
// learners then step normally and end bitwise identical, weights and
// residuals, to a run that never saw the failure and skipped the same batch.
func TestRankDownAfterEncodeLeavesResidual(t *testing.T) {
	const ranks, before, after = 2, 2, 3
	for _, overlap := range []bool{false, true} {
		t.Run(fmt.Sprintf("overlap=%v", overlap), func(t *testing.T) {
			cfg := feedbackConfig("int8", overlap, false)
			skipBatch := func(l *Learner) error { return l.source.NextBatch(l.x, l.labels) }

			// Reference: no failure, one batch skipped on each rank.
			ref := mpi.NewWorld(ranks)
			defer ref.Close()
			want := newLearners(t, ref, ranks, cfg)
			if err := stepAll(want, before); err != nil {
				t.Fatal(err)
			}
			for _, l := range want {
				if err := skipBatch(l); err != nil {
					t.Fatal(err)
				}
			}
			if err := stepAll(want, after); err != nil {
				t.Fatal(err)
			}

			w := mpi.NewWorld(ranks)
			defer w.Close()
			inj := w.InjectFaults(mpi.FaultPlan{})
			got := newLearners(t, w, ranks, cfg)
			if err := stepAll(got, before); err != nil {
				t.Fatal(err)
			}
			residual := append([]float32(nil), got[0].feedback.Residual()...)
			weights, err := got[0].FlatWeights()
			if err != nil {
				t.Fatal(err)
			}
			inj.Crash(1)
			if _, err := got[0].Step(); !errors.Is(err, mpi.ErrRankDown) {
				t.Fatalf("step with a dead peer: %v, want ErrRankDown", err)
			}
			requireBitwise(t, "residual after the failed step", got[0].feedback.Residual(), residual)
			after0, err := got[0].FlatWeights()
			if err != nil {
				t.Fatal(err)
			}
			requireBitwise(t, "weight after the failed step", after0, weights)
			if got[0].StepCount() != before {
				t.Fatalf("step count %d after the failed step, want %d", got[0].StepCount(), before)
			}

			// The victim never stepped; it skips the batch the survivor
			// consumed. Both move to a live world and carry on.
			if err := skipBatch(got[1]); err != nil {
				t.Fatal(err)
			}
			live := mpi.NewWorld(ranks)
			defer live.Close()
			for r, l := range got {
				l.comm = live.MustComm(r)
			}
			if err := stepAll(got, after); err != nil {
				t.Fatal(err)
			}
			for r := range got {
				gw, err := got[r].FlatWeights()
				if err != nil {
					t.Fatal(err)
				}
				ww, err := want[r].FlatWeights()
				if err != nil {
					t.Fatal(err)
				}
				requireBitwise(t, fmt.Sprintf("rank %d weight", r), gw, ww)
				requireBitwise(t, fmt.Sprintf("rank %d residual", r), got[r].feedback.Residual(), want[r].feedback.Residual())
			}
		})
	}
}
