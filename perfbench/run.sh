#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload hits-4 --seed 1986 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other build output go to
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# Stop git at the checkout: a checkout that is not a repository reports
# "unknown" rather than the SHA of some enclosing repository.
sha=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.gitSHA=$sha" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
