#!/usr/bin/env sh
# lint_extra.sh — third-party static analysis, pinned by version so local
# runs and CI agree on findings:
#
#   staticcheck  honnef.co/go/tools   (correctness + simplification checks)
#   govulncheck  golang.org/x/vuln    (known-vulnerability reachability scan)
#
# The script never fetches: each pinned tool is built from the local module
# cache only (GOPROXY=off), and a tool that is not in the cache is SKIPPED
# with a notice while the script still succeeds, so an offline checkout runs
# `make lint` without a network attempt. The repo-local invariant analyzers
# (cmd/idiomvet) always run regardless. CI downloads both pinned modules in
# an explicit step first (it reads the *_MOD lines below), so there both run
# at full strength and a real finding from either tool fails the build.
set -u

STATICCHECK_MOD="honnef.co/go/tools/cmd/staticcheck@2025.1.1"
GOVULNCHECK_MOD="golang.org/x/vuln/cmd/govulncheck@v1.1.4"

GOBIN_DIR="$(mktemp -d)"
trap 'rm -rf "$GOBIN_DIR"' EXIT INT TERM

status=0

run_tool() {
    mod="$1"
    shift
    name="${mod##*/}"
    name="${name%%@*}"
    # Probe: build the pinned version from the module cache alone. Failure
    # here means the tool was never downloaded, not a lint finding.
    if ! GOBIN="$GOBIN_DIR" GOPROXY=off GOFLAGS=-mod=mod go install "$mod" >/dev/null 2>&1; then
        echo "lint_extra: SKIP $name ($mod is not in the local module cache)"
        return 0
    fi
    echo "lint_extra: $name $*"
    if ! "$GOBIN_DIR/$name" "$@"; then
        echo "lint_extra: $name failed" >&2
        status=1
    fi
}

run_tool "$STATICCHECK_MOD" ./...
run_tool "$GOVULNCHECK_MOD" ./...

exit "$status"
