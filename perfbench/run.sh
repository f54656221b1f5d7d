#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fleet-city --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the traced run's artifacts all stay under .bench_build/.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"

export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOENV=off
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
