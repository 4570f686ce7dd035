#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see main.go). Run from the repository root:
#
#	bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary, scratch files
# and span dumps. Build output goes to stderr, so the last line of
# stdout is the benchmark's result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME=$out/config TMPDIR=$out/tmp

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
