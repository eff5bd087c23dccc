#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs one workload:
#
#   bash perfbench/run.sh --workload verify --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout,
# under .bench_build/ (Go build cache, temp files, scratch stores and
# the result files in .bench_build/out/).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
