#!/bin/sh
# Builds the FIFL round benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#	sh perfbench/run.sh --workload ledger-long --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) and every
# file the benchmark writes lives under .bench_build/ in the current
# directory. The benchmark module imports the parent module through a
# replace directive, so a directory holding only the benchmark fails to
# build and the script exits non-zero without printing a result.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
