#!/usr/bin/env bash
# Builds egbench and runs it from the repository root:
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--aa] [--quick] [--pins]
# Standard output carries the machine-readable result only; cargo and the
# daemons' teardown messages go to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/egbench" "$@"
