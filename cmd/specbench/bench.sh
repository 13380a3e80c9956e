#!/usr/bin/env bash
# Builds specbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/specbench/bench.sh --workload matrix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory: the Go build cache, temporary files and the
# binary.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/specbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/cmd/specbench" build -o "$out/specbench" .
exec "$out/specbench" "$@"
