#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the runs write stays inside the checkout, under
# $CARGO_TARGET_DIR when it is set and .bench_build otherwise: the Go build
# cache, the binary, span files and the determinism pin.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
