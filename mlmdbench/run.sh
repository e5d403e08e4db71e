#!/usr/bin/env bash
# Builds the mlmd benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash mlmdbench/run.sh --workload lj-melt --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, the benchmark binary, checkpoints, CPU profiles).
# Without the mlmd sources next to mlmdbench/ the build fails and so does
# this script.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= PPROF_TMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config"
(cd "$root/mlmdbench" && go build -buildvcs=false -o "$out/mlmdbench" .)
exec "$out/mlmdbench" "$@"
