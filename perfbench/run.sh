#!/usr/bin/env bash
# Builds the benchmark and the figures command from the checkout's
# sources, then runs one workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload mesh_churn --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under the build directory
# ($CARGO_TARGET_DIR if set, .bench_build otherwise).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go build -o "$out/bin/figures" ./cmd/figures
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --root "$root" --out "$out" "$@"
