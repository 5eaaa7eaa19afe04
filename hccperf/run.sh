#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it; run it from
# the checkout's root:
#
#   bash hccperf/run.sh --workload campaign|serve|sweep --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and temporary files, result files and
# sweep caches all stay under $CARGO_TARGET_DIR (default .bench_build)
# inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/hccperf" build -o "$out/hccperf" . >&2
exec "$out/hccperf" -out "$out" -refs "$root/hccperf/testdata" "$@"
