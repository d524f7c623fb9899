#!/usr/bin/env bash
# Builds the canonical benchmark from source and runs it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload shift-sim --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, spill files) stays under
# .bench_build/ in the checkout. Outside a full checkout of the
# repository the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
