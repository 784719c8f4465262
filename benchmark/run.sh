#!/usr/bin/env bash
# The one command: build the benchmark and run every workload, each in a
# fresh process, printing every metric by name with unit and sample count.
#
#   benchmark/run.sh                       # run --seed 42, all five workloads
#   benchmark/run.sh --workload query_net --seed 7
#   benchmark/run.sh trace                 # the same with spans on (per-layer metrics)
#   benchmark/run.sh repeat --sets 2 --runs 5
#
# Options passed through: --workload --seed --seconds --workdir --out
# (and --sets/--runs for repeat). Exits non-zero if any output check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
command=run
case "${1:-}" in
run | trace | repeat)
    command=$1
    shift
    ;;
esac
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$command" "$@"
