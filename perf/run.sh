#!/usr/bin/env bash
# Builds ddperf from this checkout and runs it, for example
#
#   bash perf/run.sh --workload eq1_supremacy --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. The binary, the Go caches and
# the server journals stay under .bench_build/; nothing is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perf" && go build -o "$build/bin/ddperf" ./cmd/ddperf)
exec "$build/bin/ddperf" "$@"
