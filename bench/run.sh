#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build and the run write stays
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTMPDIR="$out/tmp"
(cd "$root/bench" && go build -o "$out/pastbench" .)
cd "$root"
exec "$out/pastbench" -workdir "$out/tmp" "$@"
