package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts got holds exactly the named metrics, each with its
// unit and a finite value.
func checkMetrics(t *testing.T, label string, want []specMetric, got map[string]metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", label, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", label, w.Name, m.Value)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced
// and traced, and checks the result lines against BENCHMARK.json.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		full, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		wl := *full
		wl.warmup, wl.minSteps = 5, 40 // a smoke run, not a measurement
		res, _, err := runUntraced(&wl, 7, 100*time.Millisecond)
		if err != nil || !res.Correct || res.Failed != 0 {
			t.Fatalf("%s untraced: correct=%v failed=%d err=%v", wl.name, res.Correct, res.Failed, err)
		}
		checkMetrics(t, wl.name+" untraced", spec.EndToEnd, res.Metrics)

		res, _, err = runTraced(&wl, 7, 200*time.Millisecond, 1, filepath.Join(t.TempDir(), "trace.json"))
		if err != nil || !res.Correct || res.Failed != 0 {
			t.Fatalf("%s traced: correct=%v failed=%d err=%v", wl.name, res.Correct, res.Failed, err)
		}
		checkMetrics(t, wl.name+" traced", spec.PerLayer, res.Metrics)
	}
}

// TestLayerWrapperKeepsWeightsBitwise steps a traced and an untraced job of
// every workload side by side and requires bitwise-equal weights: the span
// wrappers must not change arithmetic or grad-hook order (the overlap
// workload exercises the hooked backward).
func TestLayerWrapperKeepsWeightsBitwise(t *testing.T) {
	for _, wl := range workloads {
		plain, err := startJob(wl, 3, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := startJob(wl, 3, time.Now())
		if err != nil {
			plain.close()
			t.Fatal(err)
		}
		for step := 0; step < 5; step++ {
			if err := plain.step(); err != nil {
				t.Fatal(err)
			}
			if err := traced.step(); err != nil {
				t.Fatal(err)
			}
		}
		for r := range plain.ranks {
			a, err := plain.ranks[r].l.FlatWeights()
			if err != nil {
				t.Fatal(err)
			}
			b, err := traced.ranks[r].l.FlatWeights()
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
					t.Fatalf("%s rank %d: weight %d is %v traced, %v untraced", wl.name, r, i, b[i], a[i])
				}
			}
		}
		if n := len(traced.ranks[0].deviceRec.spans); n == 0 {
			t.Errorf("%s: the traced job recorded no layer spans", wl.name)
		}
		plain.close()
		traced.close()
	}
}

// TestBlocksCoverModels checks that every parameter-owning top-level child
// of every workload's model has its per-layer metrics.
func TestBlocksCoverModels(t *testing.T) {
	known := map[string]bool{}
	for _, b := range blocks {
		known[b] = true
	}
	for _, wl := range workloads {
		model := wl.newModel(1)
		for _, child := range model.Layers {
			if len(child.Params()) == 0 {
				continue
			}
			if b := blockName(model, child); !known[b] {
				t.Errorf("%s: block %s owns parameters but has no per-layer metric", wl.name, b)
			}
		}
	}
}
