#!/usr/bin/env bash
# Builds the flopt benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload simulate --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every file a run writes stay under .bench_build/ (or $CARGO_TARGET_DIR
# when set, relative to the root), so nothing outside the checkout is
# touched. The build needs no network: the module has no dependencies
# beyond the standard library and the flopt module beside it.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/floptbench" .)
exec "$out/floptbench" -workdir "$out" "$@"
