#!/usr/bin/env bash
# The resume contract: a warm re-run over a fully cached grid and a
# resume over a half-deleted cache must both reproduce the cold run's
# bytes (and the warm run does zero training work, builds no chip and
# generates no dataset).
# Profiled fault maps are cached next to the cells, under profiles/.
set -euo pipefail
MATIC=${MATIC:-./target/release/matic}

# --quiet silences all narration, so the cold run doubles as the quiet
# contract check: its stderr must be empty.
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --cache-dir ci-cache --threads 2 --quiet --out sweep-cold.json \
  2> cold-stderr.txt
test ! -s cold-stderr.txt
"$MATIC" cache stats --cache-dir ci-cache
# One profile per chip and voltage: 2 chips x 2 voltages.
test "$(ls ci-cache/profiles/*.bin | wc -l)" -eq 4
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --cache-dir ci-cache --threads 4 --out sweep-warm.json \
  2> warm-stderr.txt
cat warm-stderr.txt
grep -q "cache: 8 hits, 0 misses" warm-stderr.txt
grep -q "silicon: 0 chips synthesized, 0 profiles computed" warm-stderr.txt
grep -q "datasets: 0 generated" warm-stderr.txt
cmp sweep-cold.json sweep-warm.json
# Cells alone still replay every cell: profiles are recomputed, never
# needed for the bytes.
rm -r ci-cache/profiles
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --cache-dir ci-cache --threads 2 --out sweep-cells-only.json \
  2> cells-only-stderr.txt
cat cells-only-stderr.txt
grep -q "cache: 8 hits, 0 misses" cells-only-stderr.txt
cmp sweep-cold.json sweep-cells-only.json
# Partial resume: delete half the checkpointed cells, re-run.
ls ci-cache/cells/*.json | head -n 4 | xargs rm
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --cache-dir ci-cache --threads 3 --out sweep-partial.json \
  2> partial-stderr.txt
cat partial-stderr.txt
grep -q "cache: 4 hits, 4 misses" partial-stderr.txt
cmp sweep-cold.json sweep-partial.json
# Clearing empties both entry kinds.
"$MATIC" cache clear --cache-dir ci-cache
test "$(find ci-cache -type f | wc -l)" -eq 0
