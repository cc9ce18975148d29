#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload tpcds-shared --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache and temporaries,
# binary, traced-run spans) stays under .bench_build/ at the root of the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
# Keep the toolchain's cache, temporaries and config (telemetry) in the
# checkout, and never fetch a toolchain or module.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
