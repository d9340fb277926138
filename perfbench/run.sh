#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-plan --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, Go cache entry,
# temporary file and trace output stays under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
