#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it.
#
# Usage, from the repository root:
#   bash bccperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in there too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bccperf" build -o "$build/bin/bccperf" .
exec "$build/bin/bccperf" "$@"
