#!/usr/bin/env bash
# The whole benchmark in one command: builds the release binary once, then
# runs every workload untraced and traced, each in a fresh process, prints
# every metric as `workload metric value unit` plus the stage table, and
# exits non-zero if any correctness check fails.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE] [--selfcheck]
#
# --selfcheck runs two full sets back to back and fails unless they agree
# (see README.md). One run of one workload, as the benchmark driver makes
# it, is the `command` of /BENCHMARK.json followed by
# `--workload NAME --seed N --seconds S --trace 0|1`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/e2e/Cargo.toml" -- --all "$@"
