#!/usr/bin/env bash
# Builds the system under test (cmd/mitmd, cmd/reportd,
# examples/live-wire/origin) and the benchmark driver from this checkout,
# then runs the driver. Run from the repository root:
#
#   bash perfbench/run.sh --workload report-flood --seed 1 --seconds 10 --trace 0
#
# Build caches, binaries and the servers' data directories all live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/reportd" ]; then
    echo "perfbench: run from the repository root (no go.mod or cmd/reportd here)" >&2
    exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/bin"

go build -o "$out/bin/" ./cmd/mitmd ./cmd/reportd ./examples/live-wire/origin
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" -root "$root" "$@"
