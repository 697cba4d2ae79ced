#!/usr/bin/env bash
# Workspace invariant gate: runs the eg-analyze passes (panic-freedom,
# allocation discipline, unsafe audit, API inventory) against the
# committed analyze.toml / analyze-allowlist.toml / unsafe_inventory.txt /
# api_inventory.txt.
#
# Usage:
#   ./scripts/analyze.sh                 # the CI gate (exit 1 on findings)
#   ./scripts/analyze.sh --bless         # also refresh both inventories
#                                        # and the fixture goldens
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--bless" ]]; then
    cargo run -q -p eg-analyze -- check --root . --write-inventory
    EG_ANALYZE_BLESS=1 cargo test -q -p eg-analyze --test fixtures
fi

cargo run -q -p eg-analyze -- check --root .
