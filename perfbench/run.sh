#!/usr/bin/env bash
# Build `learnq serve` and the benchmark from source, then run the benchmark:
#
#   bash perfbench/run.sh --workload cli-engines|serve-mix|serve-evict \
#     --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selftest
#
# Run from the root of the source tree.  Build output goes to stderr, so the
# last line of stdout is the result object.
set -u
cd "$(dirname "$0")/.." || exit 2
if ! dune build --root . bin/learnq_cli.exe perfbench/perfbench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
