#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument passes through (see perfbench/README.md). Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# The build keeps every cache under .bench_build/ in the checkout, so the
# benchmark reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

(
	cd "$root/perfbench"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
		GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS=-mod=readonly GOWORK=off GOTELEMETRY=off \
		go build -o "$build/perfbench" .
)

exec "$build/perfbench" "$@"
