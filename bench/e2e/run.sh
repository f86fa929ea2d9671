#!/usr/bin/env bash
# Builds the end-to-end benchmark from this source tree and runs it.
# Run from the repository root; every argument goes to main.exe, e.g.
#   bash bench/e2e/run.sh --workload failover --seed 3 --seconds 12 --trace 0
set -euo pipefail
dune build --root . --display quiet ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
