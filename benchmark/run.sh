#!/usr/bin/env bash
# Build the benchmark program from source into .bench_build/ (inside the
# checkout the command runs from) and run it with the caller's arguments.
# Everything the go tool writes — build cache, module path, telemetry — is
# pointed at .bench_build/ too, so a run reads and writes only inside its
# checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/home" "$build/tmp"
env HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
    GOTOOLCHAIN=local \
    go build -C "$root/benchmark" -o "$build/ccabench" . >&2
exec "$build/ccabench" "$@"
