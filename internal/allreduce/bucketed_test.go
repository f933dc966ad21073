package allreduce

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
)

// rankVec builds rank r's deterministic test vector.
func rankVec(length, r int) []float32 {
	v := make([]float32, length)
	for i := range v {
		v[i] = float32(r+1)*float32(i%13+1)*0.25 - float32(i%7)
	}
	return v
}

func sumVec(length, n int) []float32 {
	want := make([]float32, length)
	for r := 0; r < n; r++ {
		for i, v := range rankVec(length, r) {
			want[i] += v
		}
	}
	return want
}

func runBucketed(t *testing.T, codec compress.Codec, n, length, bucket int, tol float64) {
	t.Helper()
	w := mpi.NewWorld(n)
	defer w.Close()
	want := sumVec(length, n)
	err := w.Run(func(c *mpi.Comm) error {
		data := rankVec(length, c.Rank())
		st, err := BucketedAllReduce(c, data, codec, CompressedOptions{BucketFloats: bucket})
		if err != nil {
			return err
		}
		bf := bucket
		if bf <= 0 {
			bf = 16384
		}
		wantBuckets := (length + bf - 1) / bf
		if st.Buckets != int64(wantBuckets) {
			return fmt.Errorf("rank %d: %d buckets, want %d", c.Rank(), st.Buckets, wantBuckets)
		}
		for i := range data {
			if math.Abs(float64(data[i]-want[i])) > tol {
				return fmt.Errorf("rank %d: data[%d] = %v, want %v", c.Rank(), i, data[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("codec=%s n=%d len=%d bucket=%d: %v", codec.Name(), n, length, bucket, err)
	}
}

func TestBucketedIdentityMatchesSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		for _, length := range []int{1, 13, 1000, 50000} {
			for _, bucket := range []int{0, 7, 4096} {
				runBucketed(t, compress.Identity{}, n, length, bucket, 1e-3)
			}
		}
	}
}

// More buckets than the tag span: tags are reused across rounds, relying on
// per-(src,tag) FIFO order; the sum must still be exact.
func TestBucketedTagReuseBeyondSpan(t *testing.T) {
	runBucketed(t, compress.Identity{}, 3, 5000, 4, 1e-3) // 1250 buckets > 1024 tags
}

// Int8 per-bucket error is bounded by max|v|/254 per rank, so the n-rank sum
// errs by at most n·max|v|/254 per element.
func TestBucketedInt8WithinQuantizationBound(t *testing.T) {
	const n, length, bucket = 4, 10000, 1024
	w := mpi.NewWorld(n)
	defer w.Close()
	want := sumVec(length, n)
	err := w.Run(func(c *mpi.Comm) error {
		data := rankVec(length, c.Rank())
		if _, err := BucketedAllReduce(c, data, compress.Int8{}, CompressedOptions{BucketFloats: bucket}); err != nil {
			return err
		}
		// Conservative global bound using the largest magnitude anywhere.
		var maxAbs float64
		for r := 0; r < n; r++ {
			for _, v := range rankVec(length, r) {
				if a := math.Abs(float64(v)); a > maxAbs {
					maxAbs = a
				}
			}
		}
		bound := float64(n)*maxAbs/254 + 1e-6
		for i := range data {
			if err := math.Abs(float64(data[i] - want[i])); err > bound {
				return fmt.Errorf("rank %d: element %d error %v exceeds bound %v", c.Rank(), i, err, bound)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Every rank must land on the bitwise-identical reduced vector, even under a
// lossy codec — the synchronous-SGD replica-sync invariant.
func TestBucketedBitwiseIdenticalAcrossRanks(t *testing.T) {
	for _, codec := range []compress.Codec{compress.Identity{}, compress.Int8{}, compress.TopK{Ratio: 0.1}} {
		const n, length = 4, 3000
		w := mpi.NewWorld(n)
		results := make([][]float32, n)
		err := w.Run(func(c *mpi.Comm) error {
			data := rankVec(length, c.Rank())
			if _, err := BucketedAllReduce(c, data, codec, CompressedOptions{BucketFloats: 256}); err != nil {
				return err
			}
			results[c.Rank()] = data
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("codec=%s: %v", codec.Name(), err)
		}
		for r := 1; r < n; r++ {
			for i := range results[0] {
				if results[r][i] != results[0][i] {
					t.Fatalf("codec=%s: rank %d diverges at element %d: %v vs %v",
						codec.Name(), r, i, results[r][i], results[0][i])
				}
			}
		}
	}
}

// wantResidual is the error-feedback residual a rank must hold after
// exchanging data in buckets of the given size from residual prev: bucket
// by bucket, v - decode(compress(v)) with v = data + prev — the own
// payload's decode, which is all the residual needs from it.
func wantResidual(codec compress.Codec, data, prev []float32, bucket int) ([]float32, error) {
	want := make([]float32, len(data))
	for lo := 0; lo < len(data); lo += bucket {
		hi := min(lo+bucket, len(data))
		v := make([]float32, hi-lo)
		for i := range v {
			v[i] = data[lo+i] + prev[lo+i]
		}
		d := make([]float32, hi-lo)
		if err := codec.Decompress(d, compress.Encode(codec, v)); err != nil {
			return nil, err
		}
		for i := range v {
			want[lo+i] = v[i] - d[i]
		}
	}
	return want, nil
}

// checkResidual compares a rank's committed residual with wantResidual, bit
// for bit.
func checkResidual(rank int, codec compress.Codec, fb *compress.Feedback, data, prev []float32, bucket int) error {
	want, err := wantResidual(codec, data, prev, bucket)
	if err != nil {
		return err
	}
	for i, r := range fb.Residual() {
		if math.Float32bits(r) != math.Float32bits(want[i]) {
			return fmt.Errorf("rank %d: residual[%d] = %v, want %v", rank, i, r, want[i])
		}
	}
	return nil
}

// The own payload's decode must reach error feedback: after two exchanges,
// each committed, the residual equals the unfused decode-and-subtract
// residual of the data sent.
func TestBucketedSelfDecoded(t *testing.T) {
	const n, length, bucket = 3, 2000, 512
	codec := compress.TopK{Ratio: 0.25}
	w := mpi.NewWorld(n)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		fb := compress.NewFeedback(length)
		for step := 0; step < 2; step++ {
			orig := rankVec(length, c.Rank()+step)
			data := append([]float32(nil), orig...)
			prev := append([]float32(nil), fb.Residual()...)
			if _, err := BucketedAllReduce(c, data, codec, CompressedOptions{BucketFloats: bucket, Feedback: fb}); err != nil {
				return err
			}
			fb.Commit()
			if err := checkResidual(c.Rank(), codec, fb, orig, prev, bucket); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Length mismatch must be rejected up front.
	w2 := mpi.NewWorld(1)
	defer w2.Close()
	err = w2.Run(func(c *mpi.Comm) error {
		_, err := BucketedAllReduce(c, make([]float32, 8), codec, CompressedOptions{Feedback: compress.NewFeedback(4)})
		if err == nil {
			return fmt.Errorf("Feedback length mismatch should error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The whole point: lossy codecs must move strictly fewer wire bytes than the
// identity codec on the same exchange, and the stats must say so.
func TestBucketedStatsCompressionWins(t *testing.T) {
	const n, length, bucket = 4, 20000, 2048
	bytesFor := func(codec compress.Codec) CompressedStats {
		w := mpi.NewWorld(n)
		defer w.Close()
		var st CompressedStats
		err := w.Run(func(c *mpi.Comm) error {
			data := rankVec(length, c.Rank())
			s, err := BucketedAllReduce(c, data, codec, CompressedOptions{BucketFloats: bucket})
			if c.Rank() == 0 {
				st = s
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	id := bytesFor(compress.Identity{})
	i8 := bytesFor(compress.Int8{})
	tk := bytesFor(compress.TopK{Ratio: 0.05})
	if id.BytesSent != id.RawBytes || id.BytesSent != int64(4*length*(n-1)) {
		t.Fatalf("identity sent %d bytes, want raw %d", id.BytesSent, int64(4*length*(n-1)))
	}
	if i8.BytesSent >= id.BytesSent || tk.BytesSent >= id.BytesSent {
		t.Fatalf("lossy codecs must send fewer bytes: id=%d int8=%d topk=%d", id.BytesSent, i8.BytesSent, tk.BytesSent)
	}
	if i8.BytesRecv != i8.BytesSent {
		t.Fatalf("symmetric exchange: recv %d != sent %d", i8.BytesRecv, i8.BytesSent)
	}
	if r := i8.Ratio(); r < 3.5 || r > 4.1 {
		t.Fatalf("int8 compression ratio %v, want ~3.97", r)
	}
	if tk.Ratio() < 4 {
		t.Fatalf("topk@0.05 compression ratio %v, want > 4", tk.Ratio())
	}
	var zero CompressedStats
	if zero.Ratio() != 1 {
		t.Fatalf("empty stats ratio %v, want 1", zero.Ratio())
	}
	sum := id
	sum.Add(i8)
	if sum.BytesSent != id.BytesSent+i8.BytesSent || sum.Buckets != id.Buckets+i8.Buckets {
		t.Fatal("Add does not accumulate")
	}
}

func TestBucketedEmptyVector(t *testing.T) {
	w := mpi.NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		st, err := BucketedAllReduce(c, nil, compress.Identity{}, CompressedOptions{})
		if err != nil {
			return err
		}
		if st.Buckets != 0 || st.BytesSent != 0 {
			return fmt.Errorf("empty vector produced stats %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
