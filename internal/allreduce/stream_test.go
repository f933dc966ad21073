package allreduce

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/kernels"
	"repro/internal/mpi"
)

// streamReduce runs a Stream over every rank of an n-rank world, submitting
// the buckets of each rank's copy of data in the given per-rank order, and
// returns each rank's reassembled result.
func streamReduce(t *testing.T, ranks int, data [][]float32, codec compress.Codec, bf int, order func(rank int, buckets []int) []int) ([][]float32, []CompressedStats) {
	t.Helper()
	out := make([][]float32, ranks)
	stats := make([]CompressedStats, ranks)
	var mu sync.Mutex
	w := mpi.NewWorld(ranks)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		local := append([]float32(nil), data[rank]...)
		nb := (len(local) + bf - 1) / bf
		buckets := make([]int, nb)
		for b := range buckets {
			buckets[b] = b
		}
		if order != nil {
			buckets = order(rank, buckets)
		}
		s := NewStream(c, codec, StreamOptions{MaxInFlight: 3})
		go func() {
			for _, b := range buckets {
				lo, hi := b*bf, min(b*bf+bf, len(local))
				s.Submit(b, lo, hi, local[lo:hi])
			}
			s.CloseSend()
		}()
		res := make([]float32, len(local))
		for r := range s.Results() {
			if r.Err != nil {
				return r.Err
			}
			copy(res[r.Lo:r.Hi], r.Sum)
		}
		st, err := s.Stats()
		if err != nil {
			return err
		}
		mu.Lock()
		out[rank] = res
		stats[rank] = st
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

func randomRankData(ranks, n int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, ranks)
	for r := range data {
		data[r] = make([]float32, n)
		for i := range data[r] {
			data[r][i] = float32(rng.NormFloat64())
		}
	}
	return data
}

// TestStreamMatchesBucketedAllReduce: submitting buckets through the
// streaming front-end must produce bitwise the same sums and traffic stats
// as the phased call, for exact and lossy codecs alike.
func TestStreamMatchesBucketedAllReduce(t *testing.T) {
	const ranks, n, bf = 3, 1000, 128
	for _, codec := range []compress.Codec{compress.Identity{}, compress.Int8{}, compress.TopK{Ratio: 0.2}} {
		t.Run(codec.Name(), func(t *testing.T) {
			data := randomRankData(ranks, n, 42)

			streamed, streamStats := streamReduce(t, ranks, data, codec, bf, nil)

			phased := make([][]float32, ranks)
			phasedStats := make([]CompressedStats, ranks)
			var mu sync.Mutex
			w := mpi.NewWorld(ranks)
			defer w.Close()
			err := w.Run(func(c *mpi.Comm) error {
				local := append([]float32(nil), data[c.Rank()]...)
				st, err := BucketedAllReduce(c, local, codec, CompressedOptions{BucketFloats: bf})
				if err != nil {
					return err
				}
				mu.Lock()
				phased[c.Rank()] = local
				phasedStats[c.Rank()] = st
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				for i := range phased[r] {
					if phased[r][i] != streamed[r][i] {
						t.Fatalf("rank %d elem %d: phased %v, streamed %v", r, i, phased[r][i], streamed[r][i])
					}
				}
				if streamStats[r] != phasedStats[r] {
					t.Fatalf("rank %d stats: phased %+v, streamed %+v", r, phasedStats[r], streamStats[r])
				}
			}
		})
	}
}

// TestStreamSubmissionOrderIrrelevantToResult: any agreed submission order
// (here: descending, then a seeded shuffle shared by all ranks — matching
// the Stream's ordering contract) must produce bitwise the same reduction as
// ascending order, since matching is by bucket tag, not launch position.
func TestStreamSubmissionOrderIrrelevantToResult(t *testing.T) {
	const ranks, n, bf = 4, 640, 64
	data := randomRankData(ranks, n, 7)
	inOrder, _ := streamReduce(t, ranks, data, compress.Int8{}, bf, nil)
	descending, _ := streamReduce(t, ranks, data, compress.Int8{}, bf, func(rank int, buckets []int) []int {
		for i, j := 0, len(buckets)-1; i < j; i, j = i+1, j-1 {
			buckets[i], buckets[j] = buckets[j], buckets[i]
		}
		return buckets
	})
	shuffled, _ := streamReduce(t, ranks, data, compress.Int8{}, bf, func(rank int, buckets []int) []int {
		rng := rand.New(rand.NewSource(100)) // same seed on every rank: agreed order
		rng.Shuffle(len(buckets), func(i, j int) { buckets[i], buckets[j] = buckets[j], buckets[i] })
		return buckets
	})
	for r := 0; r < ranks; r++ {
		for i := range inOrder[r] {
			if inOrder[r][i] != descending[r][i] {
				t.Fatalf("rank %d elem %d: ascending %v, descending %v", r, i, inOrder[r][i], descending[r][i])
			}
		}
	}
	for r := 0; r < ranks; r++ {
		for i := range inOrder[r] {
			if inOrder[r][i] != shuffled[r][i] {
				t.Fatalf("rank %d elem %d: in-order %v, shuffled %v", r, i, inOrder[r][i], shuffled[r][i])
			}
		}
	}
	// And all ranks hold the same reduction.
	for r := 1; r < ranks; r++ {
		for i := range shuffled[0] {
			if shuffled[r][i] != shuffled[0][i] {
				t.Fatalf("rank %d diverged from rank 0 at elem %d", r, i)
			}
		}
	}
}

// TestStreamSelfDecoded: a stream with a Feedback encodes every bucket
// through it, so once the exchange drains and the step commits, the
// residual holds data + previous residual minus the decode of this rank's
// own transmitted payload, bucket by bucket, step after step.
func TestStreamSelfDecoded(t *testing.T) {
	const ranks, n, bf = 2, 300, 64
	data := randomRankData(ranks, n, 13)
	codec := compress.Int8{}
	w := mpi.NewWorld(ranks)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		fb := compress.NewFeedback(n)
		for step := 0; step < 2; step++ {
			local := append([]float32(nil), data[(rank+step)%ranks]...)
			prev := append([]float32(nil), fb.Residual()...)
			s := NewStream(c, codec, StreamOptions{Feedback: fb})
			go func() {
				for b := 0; b*bf < n; b++ {
					lo, hi := b*bf, min(b*bf+bf, n)
					s.Submit(b, lo, hi, local[lo:hi])
				}
				s.CloseSend()
			}()
			for r := range s.Results() {
				if r.Err != nil {
					return r.Err
				}
				r.Release()
			}
			fb.Commit()
			if err := checkResidual(rank, codec, fb, data[(rank+step)%ranks], prev, bf); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamInFlightBounded: the pipeline must never hold more than
// MaxInFlight buckets at once even when many are submitted back-to-back.
func TestStreamInFlightBounded(t *testing.T) {
	const ranks, n, bf, cap = 2, 2048, 64, 2
	data := randomRankData(ranks, n, 3)
	w := mpi.NewWorld(ranks)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		local := append([]float32(nil), data[c.Rank()]...)
		s := NewStream(c, compress.Identity{}, StreamOptions{MaxInFlight: cap})
		go func() {
			for b := 0; b*bf < n; b++ {
				lo, hi := b*bf, min(b*bf+bf, n)
				s.Submit(b, lo, hi, local[lo:hi])
			}
			s.CloseSend()
		}()
		for r := range s.Results() {
			if r.Err != nil {
				return r.Err
			}
			if got := s.InFlight(); got > cap {
				t.Errorf("in-flight %d exceeds cap %d", got, cap)
			}
		}
		_, err := s.Stats()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamWindowCostsNoAllocs: a warm Stream round must not allocate more
// with a wide in-flight window than with a narrow one — the request tables
// of every window slot are built once in NewStream, not per launched job.
func TestStreamWindowCostsNoAllocs(t *testing.T) {
	const nb, bf = 16, 64
	prev := kernels.SetWorkers(1)
	defer kernels.SetWorkers(prev)
	w := mpi.NewWorld(2)
	defer w.Close()
	data := randomRankData(2, nb*bf, 5)
	// round runs one Stream over every bucket of data; full, when non-nil,
	// is called once the window holds `window` buckets.
	round := func(c *mpi.Comm, window int, data []float32, full func()) error {
		s := NewStream(c, compress.Identity{}, StreamOptions{MaxInFlight: window})
		go func() {
			for b := 0; b < nb; b++ {
				s.Submit(b, b*bf, (b+1)*bf, data[b*bf:(b+1)*bf])
			}
			s.CloseSend()
		}()
		if full != nil {
			for s.InFlight() < window {
				runtime.Gosched()
			}
			full()
		}
		for r := range s.Results() {
			r.Release()
		}
		_, err := s.Stats()
		return err
	}
	// Rank 1 joins each round only once rank 0's window is full, so rank 0
	// really holds the whole window of buckets at once.
	start := make(chan int)
	errs := make(chan error)
	go func() {
		c1 := w.MustComm(1)
		for window := range start {
			errs <- round(c1, window, data[1], nil)
		}
	}()
	defer close(start)
	c0 := w.MustComm(0)
	allocs := func(window int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := round(c0, window, data[0], func() { start <- window }); err != nil {
				t.Fatal(err)
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		})
	}
	a4, a16 := allocs(4), allocs(16)
	if a16 > a4 {
		t.Fatalf("a round at MaxInFlight 16 allocates %v, at 4 only %v", a16, a4)
	}
}
