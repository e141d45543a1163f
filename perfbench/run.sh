#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload single --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/:
# the Go build cache, temporary files, the benchmark binary, and each
# run's scratch directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench/run.sh: run from the repository root (go.mod not found)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	PPROF_TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOMODCACHE="$build/gomod" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
