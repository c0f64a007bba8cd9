#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload sim-mixed-gc --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temp files, the go
# command's own config and telemetry) stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
