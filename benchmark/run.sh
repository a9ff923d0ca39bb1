#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (its own module,
# which imports the simulator from the enclosing repo through a replace
# directive) into .bench_build/ inside the checkout and runs it from the
# checkout root. The Go build cache, GOPATH and the toolchain's config
# directory are pointed there too, so a run reads and writes nothing outside
# the checkout; the first run pays the full compile, later runs are cache
# hits. In a directory without the simulator's sources the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/noxbenchmark" .)
cd "$root"
exec "$out/noxbenchmark" "$@"
