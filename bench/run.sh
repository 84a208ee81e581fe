#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source, then
# run it from the checkout root with the caller's arguments.
#
# Everything the Go toolchain writes (build cache, temp files, its telemetry
# counters) is pointed into .bench_build/ inside the checkout, so a run reads
# and writes nothing outside it. In a directory that holds only the benchmark
# (no ../go.mod for the replace directive to find) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/pandabench" . 1>&2
cd "$root"
exec "$build/pandabench" "$@"
