#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the arguments given. The Go build cache, temp files and the
# toolchain's own config directory (go env file, telemetry counters) are kept
# inside the checkout too, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/nexusbench" .
cd "$root"
exec "$build/nexusbench" "$@"
