#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload bgtl --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and every
# file the benchmark writes stay under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
