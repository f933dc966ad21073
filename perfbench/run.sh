#!/usr/bin/env bash
# Builds the training benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload mlp-int8 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the trace
# files all stay under .bench_build/ in the current directory; nothing is
# fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
