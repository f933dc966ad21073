package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

func trainedModel(t *testing.T, seed int64) (*nn.Sequential, *sgd.SGD) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := models.NewSmallCNN(3, 8, rng)
	opt := sgd.New(net.Params(), sgd.DefaultConfig())
	// A few steps so both weights and momentum are non-trivial.
	x := tensor.New(4, 3, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 0}
	ce := nn.NewSoftmaxCrossEntropy()
	for i := 0; i < 5; i++ {
		nn.ZeroGrads(net.Params())
		out := net.Forward(x, true)
		if _, err := ce.Forward(out, labels); err != nil {
			t.Fatal(err)
		}
		net.Backward(ce.Backward())
		opt.Step(0.05)
	}
	return net, opt
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	net, opt := trainedModel(t, 1)
	ck, err := Capture(net.Params(), opt, 500, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh model with the same architecture but different weights.
	net2, opt2 := trainedModel(t, 2)
	if err := ck.Restore(net2.Params(), opt2); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		p2 := net2.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != p2.Value.Data[j] {
				t.Fatalf("param %d elem %d differs after restore", i, j)
			}
		}
	}
	// Momentum restored: the next identical update must match exactly.
	g := make([]float32, nn.ParamCount(net.Params()))
	for i := range g {
		g[i] = float32(i%11) * 0.01
	}
	if err := nn.UnflattenGrads(net.Params(), g); err != nil {
		t.Fatal(err)
	}
	if err := nn.UnflattenGrads(net2.Params(), g); err != nil {
		t.Fatal(err)
	}
	opt.Step(0.03)
	opt2.Step(0.03)
	for i, p := range net.Params() {
		p2 := net2.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != p2.Value.Data[j] {
				t.Fatal("momentum state not restored: updates diverge")
			}
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	net, opt := trainedModel(t, 3)
	ck, err := Capture(net.Params(), opt, 42, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 42 || got.Epoch != 1.25 {
		t.Fatalf("counters %d/%v, want 42/1.25", got.Step, got.Epoch)
	}
	net2, opt2 := trainedModel(t, 4)
	if err := got.Restore(net2.Params(), opt2); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		p2 := net2.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != p2.Value.Data[j] {
				t.Fatal("weights differ after disk round trip")
			}
		}
	}
}

func TestRestoreRejectsWrongArchitecture(t *testing.T) {
	net, opt := trainedModel(t, 5)
	ck, err := Capture(net.Params(), opt, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := models.NewTinyResNet(3, 1, tensor.NewRNG(6))
	if err := ck.Restore(other.Params(), nil); err == nil {
		t.Fatal("restoring into a different architecture must fail")
	}
	// Same shapes but different names must also fail.
	renamed := models.NewSmallCNN(3, 8, tensor.NewRNG(7))
	renamed.Params()[0].Name = "impostor"
	if err := ck.Restore(renamed.Params(), nil); err == nil {
		t.Fatal("name mismatch must fail")
	}
}

func TestCaptureWithoutOptimizer(t *testing.T) {
	net, _ := trainedModel(t, 8)
	ck, err := Capture(net.Params(), nil, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	net2, _ := trainedModel(t, 9)
	if err := got.Restore(net2.Params(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty reader should error")
	}
	if _, err := Read(bytes.NewReader(make([]byte, 28))); err == nil {
		t.Fatal("bad magic should error")
	}
	net, opt := trainedModel(t, 10)
	ck, _ := Capture(net.Params(), opt, 0, 0)
	var buf bytes.Buffer
	ck.WriteTo(&buf)
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full[:len(full)/3])); err == nil {
		t.Fatal("truncated checkpoint should error")
	}
}

// A header may claim far more floats than the input holds. Read must fail
// with io.ErrUnexpectedEOF after allocating about what it actually read, not
// the claimed size (2^28 optimizer floats would be 1 GiB, a 2^30-float
// param 4 GiB).
func TestReadForgedLengthsBoundAllocation(t *testing.T) {
	header := func(count uint32) []byte {
		b := make([]byte, 28)
		binary.LittleEndian.PutUint32(b[0:], magic)
		binary.LittleEndian.PutUint32(b[4:], version)
		binary.LittleEndian.PutUint32(b[24:], count)
		return b
	}
	optForged := binary.LittleEndian.AppendUint32(header(0), 1<<28)
	paramForged := append(header(1), 1, 0, 'w')
	paramForged = binary.LittleEndian.AppendUint32(paramForged, 1<<30)
	paramForged = append(paramForged, make([]byte, 64)...)
	for name, input := range map[string][]byte{
		"optimizer length 2^28": optForged,
		"param size 2^30":       paramForged,
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := Read(bytes.NewReader(input))
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
		if delta := m1.TotalAlloc - m0.TotalAlloc; delta >= 1<<20 {
			t.Errorf("%s: Read allocated %d bytes on a %d-byte input, want < 1 MiB", name, delta, len(input))
		}
	}
}

func TestCheckpointWithLARS(t *testing.T) {
	// The Optimizer interface must accept LARS too: capture under one LARS
	// instance and restore into another with exact state equality.
	rng := tensor.NewRNG(20)
	net := models.NewSmallCNN(3, 8, rng)
	lars := sgd.NewLARS(net.Params(), sgd.DefaultConfig(), 0.01)
	// Create momentum by stepping once on synthetic gradients.
	for _, p := range net.Params() {
		rng.FillNormal(p.Grad, 0, 1)
	}
	lars.Step(0.1)
	ck, err := Capture(net.Params(), lars, 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	net2 := models.NewSmallCNN(3, 8, tensor.NewRNG(21))
	lars2 := sgd.NewLARS(net2.Params(), sgd.DefaultConfig(), 0.01)
	if err := ck.Restore(net2.Params(), lars2); err != nil {
		t.Fatal(err)
	}
	// Identical next updates prove the momentum round-tripped.
	for i, p := range net.Params() {
		copy(net2.Params()[i].Grad.Data, p.Grad.Data)
	}
	lars.Step(0.1)
	lars2.Step(0.1)
	for i, p := range net.Params() {
		p2 := net2.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != p2.Value.Data[j] {
				t.Fatal("LARS state not restored: updates diverge")
			}
		}
	}
}

func TestSGDStateExportImportErrors(t *testing.T) {
	net, opt := trainedModel(t, 11)
	n := nn.ParamCount(net.Params())
	if opt.StateLen() != n {
		t.Fatalf("StateLen %d, want %d", opt.StateLen(), n)
	}
	if err := opt.ExportState(make([]float32, n-1)); err == nil {
		t.Fatal("short export should error")
	}
	if err := opt.ImportState(make([]float32, n+1)); err == nil {
		t.Fatal("long import should error")
	}
}
