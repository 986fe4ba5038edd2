#!/usr/bin/env bash
# Builds the LPVS service benchmark from the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload edge-slot --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, cache and trace
# file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/lpvsbench" .)
exec "$out/lpvsbench" -root "$root" "$@"
