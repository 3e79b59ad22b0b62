#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh hscdbench/run.sh --workload sweep|scale --seed N --seconds S --trace 0|1
# Build output goes to stderr; the run's last stdout line is its JSON result.
set -e
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./hscdbench/main.exe 1>&2
exec ./_build/default/hscdbench/main.exe "$@"
