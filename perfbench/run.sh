#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache and the binary) stays in
# .bench_build under the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOFLAGS=
go build -C "$root/perfbench" -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
