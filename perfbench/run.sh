#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload gateway-read --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's temporary store
# directories all live under $CARGO_TARGET_DIR (default .bench_build),
# so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -tmp "$out/tmp" "$@"
