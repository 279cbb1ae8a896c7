#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh                               # every workload, one process each
#   bash bench/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
#
# Every build product and temporary file stays under $CARGO_TARGET_DIR
# (default .bench_build) in the working directory; the Go toolchain is told
# not to touch the network or the user's caches.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
# The go command's telemetry counters live under the user config directory.
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export RWBENCH_DIR=$out

(cd bench && go build -o "$out/rwbench" .) >&2
exec "$out/rwbench" "$@"
