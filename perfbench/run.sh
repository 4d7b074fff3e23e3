#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every file the build and the run write (Go build cache, binary, traces,
# disk-tier directories) lands under .bench_build/ at the checkout root.
# Outside a full checkout (no agcm module next to perfbench/) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
work="$root/.bench_build/perfbench"
mkdir -p "$work/gocache" "$work/tmp" "$work/config"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOPATH="$work/gopath" \
	XDG_CONFIG_HOME="$work/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$work/perfbench" . >&2
exec "$work/perfbench" -workdir "$work" "$@"
