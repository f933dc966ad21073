# Mirrors .github/workflows/ci.yml: `make build test bench lint` is what CI
# runs, so a green local make means a green pipeline.

GO ?= go

.PHONY: all build test goamd64-v3 purego race bench allocs allocs-baseline kernels kernels-baseline overlap shard hier chaos sim sim-calibrate lint clean

all: lint build test

build:
	$(GO) build ./...

test: goamd64-v3 purego
	$(GO) test ./...

# The GEMM and int8 bitwise suites built for x86-64-v3 (needs an AVX2
# host): a tripwire in case a future toolchain starts fusing float32
# multiply-add into FMA, which would break bitwise equality with the
# assembly kernels.
goamd64-v3:
	GOAMD64=v3 $(GO) test -run 'GemmBitwise|GemmPacked' ./internal/tensor
	GOAMD64=v3 $(GO) test -run 'DecompressAdd|Int8Vectorized|Int8AVX2Kernels|FeedbackEncode' ./internal/compress

# The codec suites on the scalar loops (the build without the assembly
# kernels), so AVX2 hosts keep them exercised.
purego:
	$(GO) test -tags purego -run 'DecompressAdd|Int8Vectorized|FeedbackEncode|FeedbackAccounting|ParallelEncode|Half' ./internal/compress

race:
	$(GO) test -race -shuffle=on -timeout 40m ./...

# Every benchmark once — the CI smoke run. Full measurement runs want
# `go test -bench=. -benchtime=10x .` by hand.
bench: allocs
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Allocation profile of the training hot path, gated against the committed
# BENCH_alloc.json baseline (fails if allocs/op regresses > 2x). The run's
# own report goes to the OS temp dir; use allocs-baseline to regenerate the
# committed baseline alongside an intentional change.
allocs:
	$(GO) run ./cmd/benchtool allocs

allocs-baseline:
	$(GO) run ./cmd/benchtool allocs -update

# Compute-kernel throughput (GEMM GFLOP/s, conv fwd+bwd step time at 1 worker
# vs the full pool, codec GB/s), gated against the committed
# BENCH_kernels.json baseline (fails if any throughput drops > 2x, or if the
# conv parallel speedup falls under 2x on a >= 4-CPU machine). Use
# kernels-baseline to regenerate the committed baseline alongside an
# intentional change.
kernels:
	$(GO) run ./cmd/benchtool kernels

kernels-baseline:
	$(GO) run ./cmd/benchtool kernels -update

# The overlap workload CI runs: phased vs reactive schedules of the same
# comm-heavy job, with the JSON report benchtool uploads as an artifact.
overlap:
	$(GO) run ./cmd/benchtool overlap -json overlap.json

# The ZeRO-1 sharded-optimizer workload CI runs: replicated vs sharded state,
# per-rank optimizer bytes, step time, and the bitwise equivalence check.
shard:
	$(GO) run ./cmd/benchtool shard -json shard.json

# The hierarchical-collectives workload CI runs: flat vs topology-routed
# gradient exchange on an asymmetric fabric — fails unless the slow-link
# bytes drop >= 2x and the final weights stay bitwise identical.
hier:
	$(GO) run ./cmd/benchtool hier -json hier.json

# The chaos-resilience workload CI runs: a rank is killed every 5 steps of an
# elastic training run (with rejoins), and the job fails unless every
# recovery completes and the final loss stays within tolerance of the
# failure-free baseline.
chaos:
	$(GO) run ./cmd/benchtool chaos -json chaos.json

# The discrete-event simulator sweep CI uploads: predicted step time,
# per-link-class bytes, and fabric congestion hot spots for every
# collective × codec at 2×4 / 16×8 / 64×8 on the Minsky fabric.
sim:
	$(GO) run ./cmd/benchtool sim -json sim.json

# The calibration gate CI runs: fit the simulator's host-overhead knob
# against live 2×4 runs and fail unless byte counts agree exactly and the
# predicted-vs-measured step time holds MAPE <= 15%.
sim-calibrate:
	$(GO) run ./cmd/benchtool sim-calibrate -json sim.json

# The purego vet type-checks the build without the assembly kernels.
lint:
	$(GO) vet ./...
	$(GO) vet -tags purego ./internal/kernels ./internal/tensor ./internal/compress
	gofmt -l . | tee /dev/stderr | test -z "$$(cat)"

clean:
	$(GO) clean ./...
