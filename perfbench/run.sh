#!/usr/bin/env bash
# Builds cmd/authd and the benchmark from this checkout into the build
# directory, then runs one benchmark invocation with the given flags:
#
#   bash perfbench/run.sh --workload auth-root-ditl --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes stays under the
# build directory ($CARGO_TARGET_DIR if set, else .bench_build).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"

# Keep the go command's cache, temporary files, config and telemetry
# inside the build directory.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -o "$out/authd" ./cmd/authd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -authd "$out/authd" -out "$out" "$@"
