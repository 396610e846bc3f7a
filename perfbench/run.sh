#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. From the
# repository root:
#
#   bash perfbench/run.sh --workload kv-mix --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, sockets and trace files all stay
# under .bench_build/ in the checkout. A failed build exits non-zero
# before anything is measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
