#!/usr/bin/env bash
# Regenerates every table/figure harness and collects outputs under
# target/experiments/. Usage: scripts/run_all.sh [scale]
set -u
SCALE="${1:-1.0}"
OUT=target/experiments
mkdir -p "$OUT"
BINS="table2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig11 fig12 ec2_validation overhead probing ablation"
for bin in $BINS; do
  echo "=== $bin (scale $SCALE) ==="
  CLOUDTALK_BENCH_SCALE="$SCALE" cargo run --quiet --release -p cloudtalk-bench --bin "$bin" \
    | tee "$OUT/$bin.txt"
  echo
done
echo "outputs in $OUT/"
