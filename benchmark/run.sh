#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# and the run write — Go's build cache, its temp files, the binary and
# the durable workload's scratch directories — stays under .bench_build
# at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -scratch "$build/data" "$@"
