#!/usr/bin/env bash
# Builds the wwbbench harness from this checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash wwbbench/run.sh --workload serve --seed 1 --seconds 5 --trace 0
#
# Every build artifact and scratch file stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), so the harness reads
# and writes nothing outside the checkout. The build log goes to stderr;
# stdout carries only the harness's own output.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false" CGO_ENABLED=0

(cd "$root/wwbbench" && go build -trimpath -o "$out/wwbbench" .) >&2
cd "$root"
exec "$out/wwbbench" -root "$root" -work "$out" "$@"
