#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# With no --workload it runs every workload, untraced then traced.
# Everything it writes (Go build cache, binary, span files, journals) goes
# under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/zkvc-benchmark" .)
cd "$root"
exec "$build/zkvc-benchmark" "$@"
