#!/usr/bin/env bash
# The single entry point of the repo benchmark. Run from the repository
# root:
#
#   benchmark/run.sh                          every workload once, seed 1
#   benchmark/run.sh --seed 3 --runs 10       ten seeds per workload, medians and spreads
#   benchmark/run.sh --trace                  adds the traced run (per-layer ledger)
#   benchmark/run.sh --smoke                  everything at a twentieth of the size
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one workload, result on the last line
#   benchmark/run.sh --compare A.json B.json  the bounds applied to two outputs
#   benchmark/run.sh --record-expected        re-record benchmark/expected/
#   benchmark/run.sh --manifest               print BENCHMARK.json
#
# Builds offline from the sources around it (nothing is fetched) and then
# hands every argument to the program; each workload runs in a process of
# its own, so peak memory is per workload.
set -euo pipefail
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
