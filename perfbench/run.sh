#!/bin/sh
# Builds the benchmark and the failatom CLI from the checkout this file
# sits in, then runs one workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last stdout line is the result.
# The shared dune cache is off so that the build writes only inside
# the checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/failatom.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
