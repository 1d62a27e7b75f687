#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload serve-topk --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, generated inputs and outputs) stays in
# .bench_build/ under the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build/work" "$@"
