#!/usr/bin/env bash
# Regenerates the committed paper-figure captures: runs the table1 and
# fig8–fig12 harness binaries at a fixed scale and writes their JSON under
# bench-results/.
#
# Usage: ./scripts/bench_trajectory.sh            # default EG_SCALE=0.02
#        EG_SCALE=0.1 ./scripts/bench_trajectory.sh
#
# table1.json holds only deterministic columns and is checked in tier-1
# (crates/bench/tests/table1_stats.rs); the fig8–fig10 captures are timings
# and memory of the machine that ran them, fig11/fig12 are file sizes and
# deterministic for a scale.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${EG_SCALE:-0.02}"
OUT_DIR="bench-results"
mkdir -p "$OUT_DIR"

echo "== paper figures @ EG_SCALE=$SCALE =="
for pair in table1:table1 fig8_timings:fig8 fig9_opts:fig9 fig10_memusage:fig10 \
    fig11_filesize:fig11 fig12_filesize:fig12; do
    bin="${pair%%:*}"
    out="${pair##*:}"
    EG_SCALE="$SCALE" cargo run --release -q -p eg-bench --bin "$bin" -- \
        --json "$OUT_DIR/$out.json"
done
ls -l "$OUT_DIR"/*.json
