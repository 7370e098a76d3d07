#!/usr/bin/env bash
# Golden report anchors: the all-MLP, mat-canary, BER, clock and conv
# sweep bytes are frozen under tests/golden/ (the generating commands
# are documented in tests/golden_report.rs).
set -euo pipefail
MATIC=${MATIC:-./target/release/matic}
GOLDEN=$(cd "$(dirname "$0")/../tests/golden" && pwd)

"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks all --modes naive,mat --scale 0.2 --epochs 0.3 \
  --seed 42 --quiet --out golden-fresh.json
cmp "$GOLDEN/sweep_all_v3.json" golden-fresh.json
"$MATIC" sweep --chips 2 --voltages 0.46,0.57,0.90 \
  --benchmarks inversek2j --modes naive,mat,mat-canary --scale 0.2 \
  --epochs 0.3 --seed 42 --quiet --out canary-fresh.json
cmp "$GOLDEN/sweep_canary_v3.json" canary-fresh.json
"$MATIC" sweep --chips 2 --bers 0.0005,0.002,0.008 \
  --benchmarks all --modes naive,mat --scale 0.2 --epochs 0.3 \
  --seed 42 --quiet --out ber-fresh.json
cmp "$GOLDEN/sweep_ber_v3.json" ber-fresh.json
"$MATIC" sweep --chips 2 --clock-stress 0.1,0.2,0.5,0.9 \
  --benchmarks all --modes naive,mat --scale 0.2 --epochs 0.3 \
  --seed 42 --quiet --out clock-fresh.json
cmp "$GOLDEN/sweep_clock_v3.json" clock-fresh.json
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks mnist --topology '10x10x1;conv3x2;pool2;dense10' \
  --modes naive,mat,mat-canary --scale 0.2 --epochs 0.3 \
  --seed 42 --quiet --out conv-fresh.json
cmp "$GOLDEN/sweep_conv_v4.json" conv-fresh.json
"$MATIC" sweep --chips 2 --clock-stress 0.2,0.9 \
  --benchmarks mnist --topology '10x10x1;conv3x2;pool2;dense10' \
  --modes naive,mat --scale 0.2 --epochs 0.3 \
  --seed 42 --quiet --out conv-clock-fresh.json
cmp "$GOLDEN/sweep_conv_clock_v4.json" conv-clock-fresh.json
echo "all six goldens cmp-equal"
