#!/usr/bin/env bash
# Builds the NF-pipeline benchmark from the checkout's sources and runs it
# from the checkout root, passing every argument through:
#
#	bash nfbench/run.sh --workload fwd64 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build): the Go build
# cache, the binary, and the state directories the workloads create.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
build="$build/nfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

# Keep the Go toolchain's caches, settings and telemetry inside the build
# directory, and keep it offline: the module needs nothing but the
# checkout.
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$here" && go build -o "$build/nfbench.bin" .)
exec "$build/nfbench.bin" -workdir "$build" "$@"
