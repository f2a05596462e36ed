#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload stream-fifo --seed 1 --seconds 15 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# Go tool's own files stay under .bench_build (or $CARGO_TARGET_DIR when
# set) inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
# The official Go installers put the toolchain in /usr/local/go.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
