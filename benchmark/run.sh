#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash benchmark/run.sh --workload pipeline-route --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh runs -out base.json -seeds 1-10
#   bash benchmark/run.sh compare base.json new.json
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, trace files and the
# service workload's data directory. The toolchain is never downloaded
# and no module is fetched: the benchmark needs only the standard library
# and the repository's own packages.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
