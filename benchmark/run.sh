#!/bin/sh
# Build the CLI and the benchmark from source in this checkout, then run
# the benchmark with the given arguments (see benchmark/README.md).
set -e
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./bin/ninja_cli.exe ./benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
