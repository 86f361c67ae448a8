#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source into
# .bench_build/ at the root of the checkout (the first call compiles; later
# calls hit the build cache kept there) and runs it with the driver's
# arguments. Everything go writes stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOFLAGS= \
	go build -C bench -o "$build/hpbench" .
exec "$build/hpbench" "$@"
