#!/usr/bin/env bash
# Builds the perfbench program from the source tree it is run in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-zipf --seed 1 --seconds 10 --trace 0
#
# Every build output (the binary, the Go build cache) goes under
# .bench_build/ in the current directory, so the benchmark reads and writes
# nothing outside the tree it measures. The build needs the dyncc module
# one level above perfbench/; without it the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
# Send build output to stderr: the last line of stdout is the result.
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
