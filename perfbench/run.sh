#!/usr/bin/env bash
# Builds the DiCE benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload online-fig2 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
#
# Build products, the Go build cache and traces go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout. The build needs the repository's own Go module
# one directory up; without it the script fails before printing a
# result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/perfbench" "$out/go-tmp"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR=$out/go-tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" "$@"
