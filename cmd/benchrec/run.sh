#!/usr/bin/env bash
# Builds cmd/benchrec from source and runs one benchmark workload. Run it
# from the repository root:
#
#   bash cmd/benchrec/run.sh --workload suite-ra --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (the binary, the Go build cache,
# profiles, span sidecars, scratch cache directories) stays under
# .bench_build/ in the working directory. Outside a full checkout the
# build fails (the module replaces repro with ../..), so the script exits
# non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd cmd/benchrec && go build -o "$out/benchrec" .)
exec "$out/benchrec" "$@"
