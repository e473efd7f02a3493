#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, keeping
# every build artefact and result under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload cold-suite --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --summarize .bench_build/results
#
# Run it from the root of the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry and settings under the config dir.
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
