#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload count-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, snapshots, trace files) goes under
# .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out" "$@"
