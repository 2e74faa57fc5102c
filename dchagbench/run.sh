#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash dchagbench/run.sh --workload hyper-dchag --seed 1 --seconds 20 --trace 0
#
# Build caches, the binary, traces and scratch files all stay under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/dchagbench" && go build -o "$build/dchagbench" .)
cd "$root"
exec "$build/dchagbench" --out "$build/out" "$@"
