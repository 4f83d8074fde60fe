#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it with the given
# flags, for example:
#
#   bash hostbench/run.sh --workload fig4 --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind goes under .bench_build/ in the current directory: the Go build
# cache, the binary, Chrome trace files and CPU profiles.
set -euo pipefail

if [[ ! -f go.mod || ! -d o2 || ! -f hostbench/go.mod ]]; then
	echo "hostbench: run from the repository root (go.mod, o2/ and hostbench/ are required)" >&2
	exit 2
fi

out="$PWD/.bench_build/hostbench"
# Keep the toolchain's caches, settings and temporary files inside the
# checkout.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd hostbench && go build -o "$out/hostbench" .)
exec "$out/hostbench" --out-dir "$out" "$@"
