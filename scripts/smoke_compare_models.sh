#!/usr/bin/env bash
# The three-model comparison at matched stress: runs every model,
# prints the naive/MAT/MAT+canary table, and its JSON is stable.
set -euo pipefail
MATIC=${MATIC:-./target/release/matic}

"$MATIC" compare-models --chips 2 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --cache-dir compare-cache --out compare-a.json
"$MATIC" compare-models --chips 2 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --cache-dir compare-cache --quiet --out compare-b.json
cmp compare-a.json compare-b.json
grep -q '"schema": "matic.compare-models/v1"' compare-a.json
grep -q '"model": "timing-error"' compare-a.json
# --topology reaches every model's plan: all seven (model, mode) points
# name the conv-chain scenario.
"$MATIC" compare-models --chips 1 --benchmarks mnist \
  --topology '10x10x1;conv3x2;pool2;dense10' --scale 0.1 --epochs 0.2 \
  --quiet --out compare-topo.json
[ "$(grep -c '"scenario": "mnist@conv3x2-pool2-dense10"' compare-topo.json)" = 7 ]
