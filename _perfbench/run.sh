#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash _perfbench/run.sh --workload memory-bound --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build writes (Go build
# cache, binary, span files) goes under .bench_build/ in the current
# directory, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(pwd)/${CARGO_TARGET_DIR:-.bench_build}
case "${CARGO_TARGET_DIR:-}" in /*) out=$CARGO_TARGET_DIR ;; esac
mkdir -p "$out"

# Keep the go command inside the checkout: no toolchain download, no
# user-level build cache, config or telemetry files.
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -build-dir "$out" "$@"
