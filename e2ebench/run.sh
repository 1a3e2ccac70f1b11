#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, for example:
#
#   bash e2ebench/run.sh --workload analytic --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, data directories and span files all
# stay in .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench.bin" .)
exec "$out/e2ebench.bin" --work "$out/work" "$@"
