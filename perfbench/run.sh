#!/usr/bin/env bash
# Builds kbserver, kbrouter, medrelax and the perfbench program from the
# checkout this is run in, then runs one benchmark workload.
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# per-run work directories stay inside the checkout (.bench_build,
# .bench_work), so nothing outside it is read or written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
mkdir -p "$out/bin" "$out/tmp" "$out/home"

go build -o "$out/bin/" ./cmd/medrelax ./cmd/kbserver ./cmd/kbrouter >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$root/.bench_work" "$@"
