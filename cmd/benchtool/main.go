// benchtool regenerates the paper's evaluation and runs the measured
// workloads behind each optimisation. The form is
//
//	benchtool <name> [flags]
//
// where name is a paper id (fig5…fig16, table1, table2, or all), which
// prints the same rows/series the paper reports from the calibrated cluster
// model, or a workload:
//
//	compress       real in-process training through the bucketed compressed
//	               allreduce: wire bytes moved and final loss per codec
//	overlap        phased vs reactive-pipeline schedules of one job
//	shard          replicated vs ZeRO-1 sharded optimizer state
//	hier           flat vs topology-routed exchange on an asymmetric fabric
//	allocs         allocations per step, gated against BENCH_alloc.json
//	kernels        GEMM/conv/codec throughput, gated against BENCH_kernels.json
//	chaos          elastic recovery under a fault scenario
//	sim            discrete-event collective simulator sweep
//	sim-calibrate  simulator calibration gate against live runs
//
// The flags are -codec (wire format, default none), -json (report path),
// -update (allocs/kernels: rewrite the committed baseline instead of gating
// against it), and -scenario/-transport (chaos). Every other value is a
// constant inside its workload and recorded in the report.
//
//	benchtool table1
//	benchtool all
//	benchtool compress -codec int8      # vs: benchtool compress -codec none
//	benchtool overlap -json overlap.json
//	benchtool chaos -scenario kill-restore -transport tcp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/simcluster"
)

// options carries the five command-line flags to a subcommand.
type options struct {
	codec     string
	jsonPath  string
	update    bool
	scenario  string
	transport string
}

// command is one entry of the subcommand table.
type command struct {
	name string
	run  func(o options) error
}

// paperIDs are the paper's figures and tables, in the order `all` prints
// them.
var paperIDs = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "fig16", "table1", "table2"}

// commands is the subcommand table: the paper ids, `all`, then the
// workloads.
func commands() []command {
	var cmds []command
	for _, id := range paperIDs {
		id := id
		cmds = append(cmds, command{id, func(options) error { return paper(id) }})
	}
	return append(cmds,
		command{"all", func(options) error { return paper(paperIDs...) }},
		command{"compress", compressWorkload},
		command{"overlap", overlapWorkload},
		command{"allocs", allocsWorkload},
		command{"kernels", kernelsWorkload},
		command{"shard", shardWorkload},
		command{"hier", hierWorkload},
		command{"chaos", chaosWorkload},
		command{"sim", simWorkload},
		command{"sim-calibrate", simCalibrateWorkload},
	)
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stderr))
}

// dispatch runs the subcommand named by args[0] with the flags in args[1:]
// and returns the exit status: 2 (after printing the table to w) for an
// unknown or missing name or bad flags, 1 if the subcommand fails.
func dispatch(args []string, w io.Writer) int {
	var cmd *command
	cmds := commands()
	for i := range cmds {
		if len(args) > 0 && cmds[i].name == args[0] {
			cmd = &cmds[i]
		}
	}
	if cmd == nil {
		fmt.Fprintln(w, "usage: benchtool <name> [-codec c] [-json path] [-update] [-scenario s] [-transport t]")
		fmt.Fprint(w, "names:")
		for _, c := range cmds {
			fmt.Fprint(w, " ", c.name)
		}
		fmt.Fprintln(w)
		return 2
	}
	fs := flag.NewFlagSet("benchtool "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(w)
	var o options
	fs.StringVar(&o.codec, "codec", "none", "gradient wire format: none, int8, topk, f16 or bf16")
	fs.StringVar(&o.jsonPath, "json", "", "write the workload report here instead of a temp path")
	fs.BoolVar(&o.update, "update", false, "allocs/kernels: write the report over the committed baseline instead of gating against it")
	fs.StringVar(&o.scenario, "scenario", "kill", "chaos fault scenario: kill, kill-negotiation, kill-restore or netsplit")
	fs.StringVar(&o.transport, "transport", "mem", "chaos fabric: mem (in-process mailboxes) or tcp (loopback sockets)")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if o.update && o.jsonPath != "" {
		fmt.Fprintln(w, "benchtool: -json conflicts with -update, which writes the committed baseline")
		return 2
	}
	if err := cmd.run(o); err != nil {
		fmt.Fprintln(w, err)
		return 1
	}
	return 0
}

// topkRatio is the kept fraction per bucket whenever a workload runs topk.
const topkRatio = 0.1

// codecConfig is the wire format every training workload uses: the chosen
// codec, with error feedback for topk (the only codec that drops mass).
func codecConfig(codec string, bucketFloats int) compress.Config {
	return compress.Config{
		Codec:         codec,
		TopKRatio:     topkRatio,
		ErrorFeedback: codec == "topk",
		BucketFloats:  bucketFloats,
	}
}

// paper prints the given figures and tables from the calibrated model.
func paper(ids ...string) error {
	c := simcluster.New(64, simcluster.DefaultParams())
	counts := []int{8, 16, 32}
	for _, id := range ids {
		var tbl *simcluster.Table
		var err error
		switch id {
		case "fig5":
			_, tbl, err = c.Fig5(16, []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
		case "fig6":
			_, _, tbl, err = c.Fig6(counts)
		case "fig7":
			_, tbl, err = c.FigShuffle(simcluster.ImageNet22k, counts)
		case "fig8":
			_, tbl, err = c.FigShuffle(simcluster.ImageNet1k, counts)
		case "fig9":
			_, tbl, err = c.Fig9([]int{1, 4, 8, 16})
		case "fig10":
			_, tbl, err = c.FigDIMD(simcluster.ImageNet1k, counts)
		case "fig11":
			_, tbl, err = c.FigDIMD(simcluster.ImageNet22k, counts)
		case "fig12":
			_, tbl, err = c.Fig12(counts)
		case "fig13":
			tbl, err = c.FigCurve(simcluster.ResNet50, false, counts)
		case "fig14":
			tbl, err = c.FigCurve(simcluster.GoogLeNetBN, false, counts)
		case "fig15":
			tbl, err = c.FigCurve(simcluster.ResNet50, true, counts)
		case "fig16":
			tbl, err = c.FigCurve(simcluster.GoogLeNetBN, true, counts)
		case "table1":
			_, tbl, err = c.Table1(counts)
		case "table2":
			_, tbl, err = c.Table2()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(tbl)
	}
	return nil
}

// compressWorkload trains a fixed synthetic workload through the bucketed
// compressed allreduce and prints the codec's bytes-moved/accuracy trade-off.
// Every parameter except the codec is held constant (fixed seeds, slice-
// dealt batches), so runs with different -codec values are directly
// comparable: same data, same model, same schedule.
func compressWorkload(o options) error {
	const learners, steps = 4, 60
	const classes, size, images, globalBatch = 3, 8, 24, 12
	dataX, dataLabels := core.SyntheticTensorData(images, classes, size, 23)
	wire := codecConfig(o.codec, 2048)
	wire.ErrorFeedback = true
	res, err := core.RunCluster(core.ClusterConfig{
		Learners:       learners,
		DevicesPerNode: 1,
		NewReplica: func(seed int64) nn.Layer {
			return core.SmallBNFreeCNN(classes, size, 500+seed)
		},
		NewSource: func(rank int) core.BatchSource {
			return &core.SliceSource{X: dataX, Labels: dataLabels, Rank: rank, Ranks: learners}
		},
		Steps:  steps,
		InputC: 3, InputH: size, InputW: size,
		Learner: core.Config{
			BatchPerDevice: globalBatch / learners,
			Allreduce:      allreduce.AlgMultiColor,
			Schedule:       sgd.Const(0.1),
			SGD:            sgd.DefaultConfig(),
			Compression:    wire,
		},
	})
	if err != nil {
		return err
	}
	losses := res.Losses[0]
	const tail = 5
	var finalLoss float64
	for _, l := range losses[len(losses)-tail:] {
		finalLoss += l
	}
	finalLoss /= tail
	cs := res.CommStats[0]
	moved := cs.BytesSent + cs.BytesRecv
	fmt.Printf("compressed-allreduce workload: codec=%s learners=%d steps=%d model=bnfree-cnn\n", o.codec, learners, steps)
	fmt.Printf("  BytesMoved: %d (allreduce wire bytes, rank 0, send+recv)\n", moved)
	fmt.Printf("  raw equivalent: %d bytes (compression ratio %.2fx)\n", 2*cs.RawBytes, cs.Ratio())
	fmt.Printf("  final loss: %.6f (mean of last %d steps; first step %.6f)\n", finalLoss, tail, losses[0])
	return nil
}
