#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# repository root: bash perfbench/run.sh --workload drill_local --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's caches, module path and telemetry inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" "$@"
