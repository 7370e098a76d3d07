#!/usr/bin/env bash
# CLI smoke: the report is byte-identical for every --threads value.
set -euo pipefail
MATIC=${MATIC:-./target/release/matic}

"$MATIC" list
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 1 --quiet --out sweep-t1.json
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 4 --quiet --out sweep-t4.json
cmp sweep-t1.json sweep-t4.json

# Canary deployment on two benchmarks: one benchmark's unit on a die walks
# that die's canaries and the other's reuses the walk, in whichever order
# the threads reach them.
for t in 1 4; do
  "$MATIC" sweep --chips 2 --voltages 0.46,0.57,0.90 \
    --benchmarks inversek2j,bscholes --modes naive,mat,mat-canary \
    --scale 0.2 --epochs 0.3 --threads "$t" --quiet --out "sweep-canary-t$t.json"
done
cmp sweep-canary-t1.json sweep-canary-t4.json
