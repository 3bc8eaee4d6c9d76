#!/usr/bin/env bash
# Builds the benchmark and fpbd from this checkout's sources, then runs the
# benchmark with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload fig18_cold --seed 7 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run artifacts stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
mkdir -p "$build/bin"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/fpbd" fpb/cmd/fpbd) >&2
exec "$build/bin/perfbench" -fpbd "$build/bin/fpbd" -out "$build/out" "$@"
