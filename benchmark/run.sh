#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is the command in
# BENCHMARK.json; the driver calls it from the root of a checkout as
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays in .bench_build/ beside
# this script (the Go build cache, temporary files and the toolchain's own
# counter files included), so the first run in a fresh checkout compiles
# the standard library too.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/BENCHMARK.json" ]; then
	echo "benchmark/run.sh: $root is not a checkout of the repository (go.mod, internal/ and BENCHMARK.json are needed)" >&2
	exit 2
fi

out="$here/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
