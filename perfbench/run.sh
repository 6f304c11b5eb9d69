#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it, e.g.
#
#   bash perfbench/run.sh --workload rollup-warm --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# result records stay under $CARGO_TARGET_DIR (default .bench_build), so a
# run writes nothing outside the checkout. Without the repository's sources
# next to perfbench/ the build fails and so does the run.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-results" "$@"
