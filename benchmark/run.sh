#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes — the Go
# build cache, the binary, the data directories, the trace files — stays
# inside the checkout: .bench_build/ and benchmark/out/ (both git-ignored).
#
#   bash benchmark/run.sh --workload nuc-distinct --seed 1 --seconds 5 --trace 0
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
# The benchmark asks git for the commit; outside a repository git must not go
# looking above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -workdir "$build/work" -outdir "$root/benchmark/out" "$@"
