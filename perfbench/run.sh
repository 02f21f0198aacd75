#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload sync-gossip --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced run's spans go to
# .bench_build/ in the current directory, so a run reads and writes nothing
# outside the checkout. Without the library next to it (../go.mod) the build
# fails, and so does the run.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
