package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sgd"
)

func TestGateFactorBothDirections(t *testing.T) {
	for _, tc := range []struct {
		name   string
		c      check
		passes bool
	}{
		{"throughput inside the factor", check{"gflops", 51, 100, true}, true},
		{"throughput beyond the factor", check{"gflops", 49, 100, true}, false},
		{"allocs inside the factor", check{"allocs", 199, 100, false}, true},
		{"allocs beyond the factor", check{"allocs", 201, 100, false}, false},
		{"improvement", check{"allocs", 10, 100, false}, true},
		{"zero baseline is not gated", check{"gflops", 0, 0, true}, true},
	} {
		err := gate([]check{tc.c})
		if (err == nil) != tc.passes {
			t.Errorf("%s: gate(%+v) = %v, want pass=%v", tc.name, tc.c, err, tc.passes)
		}
		if err != nil && !strings.Contains(err.Error(), tc.c.name) {
			t.Errorf("%s: error %q does not name the check", tc.name, err)
		}
	}
}

// tinyPair is a two-learner pair small enough to train in milliseconds.
func tinyPair(vary func(*core.Config)) abPair {
	return abPair{
		names:    [2]string{"a", "b"},
		learners: 2, devices: 1, steps: 2,
		classes: 2, size: 8, batchPerDevice: 2,
		codec: "none", bucketFloats: 1024,
		newModel: func(seed int64) nn.Layer { return core.SmallBNFreeCNN(2, 8, 500+seed) },
		learner:  core.Config{Schedule: sgd.Const(0.05), SGD: sgd.DefaultConfig()},
		vary:     vary,
	}
}

func TestRunPairFailsOnDivergence(t *testing.T) {
	if _, _, err := runPair(tinyPair(func(*core.Config) {})); err != nil {
		t.Fatalf("identical configs: %v", err)
	}
	_, _, err := runPair(tinyPair(func(c *core.Config) { c.Schedule = sgd.Const(0.1) }))
	if err == nil || !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("different learning rates: err = %v, want a divergence error", err)
	}
}

func TestDispatchRejectsUnknownName(t *testing.T) {
	for _, args := range [][]string{nil, {"fig99"}, {"-exp", "all"}} {
		var out bytes.Buffer
		if code := dispatch(args, &out); code != 2 {
			t.Errorf("dispatch(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(out.String(), "sim-calibrate") {
			t.Errorf("dispatch(%q) did not print the table:\n%s", args, out.String())
		}
	}
}
