// Command perfbench is the repository's training benchmark. It runs real
// core.Learner training loops on one named workload and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (throughput, step-time
// percentiles, set-up time, allocations, live heap, final loss), measured
// untraced. With --trace 1 a separate traced run records spans around calls
// into each layer (batch source, every top-level model child, Learner.Step),
// reads the learners' public counters, and reports per-layer metrics; its
// spans are written as Chrome trace-event JSON.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload resnet-dimd --seed 1 --seconds 10 --trace 0
//
// A run fails (non-zero exit, every step counted failed) unless all ranks'
// weights are bitwise identical, every loss is finite, the final loss is
// below the first step's, the weights CRC and byte/bucket counters repeat
// exactly across set-ups at one seed, and the traced run ends on the same
// weights as the untraced one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// watchdog bounds a whole run, set-ups and build excluded.
const watchdog = 150 * time.Second

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: resnet-dimd, mlp-int8 or mlp-tcp-overlap-shard")
	seed := flag.Int64("seed", 1, "seed of the generated data and weights")
	seconds := flag.Float64("seconds", 10, "measured seconds of the run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the untraced end-to-end one")
	flag.Parse()

	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// A hung step must not outlive the caller's patience: report it failed.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run did not finish within %v\n", watchdog)
		printJSON("", result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		os.Exit(1)
	})
	defaultProcs := runtime.GOMAXPROCS(0)
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	printJSON("host", hostFacts(defaultProcs))

	var res result
	var rep *report
	d := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		out := filepath.Join(".bench_build", "traces", wl.name+".json")
		res, rep, err = runTraced(wl, *seed, d, defaultProcs, out)
	} else {
		res, rep, err = runUntraced(wl, *seed, d)
	}
	if rep != nil {
		printJSON("report", rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	printJSON("", res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		os.Exit(1)
	}
	if label != "" {
		fmt.Printf("%s %s\n", label, b)
		return
	}
	fmt.Println(string(b))
}
