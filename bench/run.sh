#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash bench/run.sh --workload spec-ideal --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary and the JSON results.
# The benchmark module (bench/go.mod) builds against the repository root
# through a replace directive, so the build fails, and the script exits
# non-zero without a result, when bench/ is run outside a full checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/dtsvliw-bench" ./cmd/dtsvliw-bench)
cd "$root"
exec "$build/dtsvliw-bench" "$@"
