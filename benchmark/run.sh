#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument is passed on. `run.sh --workload W --seed N --seconds S --trace T`
# is the driver's contract (see ../BENCHMARK.json); without --workload it runs
# every workload in child processes and writes benchmark/out/ledger-seed<N>.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Keep every file the build writes inside the checkout.
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -out "$here/out" "$@"
