#!/usr/bin/env bash
# Builds the LineFS benchmark from source and runs it, from the repository
# root:
#
#   bash perfbench/run.sh --workload seqwrite --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary,
# traces, CPU profiles and the determinism records.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"

# Fall back to the Go distribution's default install location when go is
# not on PATH.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
