#!/usr/bin/env bash
# Builds the benchmark from the checkout in the current directory and
# runs it, e.g. from the repository root:
#
#   bash bench/run.sh --workload internet-1m --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/,
# so a run reads and writes nothing outside the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
