#!/usr/bin/env bash
# The extended-topology contract end-to-end, through the real binary: a
# conv-chain sweep must produce byte-identical reports cold, warm (from
# the persistent cache) and served out of the daemon — and the report
# must carry the v4 schema with the topology fingerprint while stock MLP
# sweeps stay on v3. `energy --report` over the v4 file must match the
# inline energy run of the same grid.
set -euo pipefail
MATIC=${MATIC:-./target/release/matic}

TOPO='10x10x1;conv3x2;pool2;dense10'

# Cold conv sweep, cache enabled.
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks mnist --topology "$TOPO" --scale 0.1 --epochs 0.2 \
  --cache-dir topo-cache --threads 2 --quiet --out topo-cold.json
grep -q '"matic.sweep-report/v4"' topo-cold.json
grep -q 'mnist@conv3x2-pool2-dense10' topo-cold.json
grep -q '"topologies"' topo-cold.json
# Warm re-run: every cell replays from the cache, bytes identical.
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks mnist --topology "$TOPO" --scale 0.1 --epochs 0.2 \
  --cache-dir topo-cache --threads 4 --out topo-warm.json \
  2> topo-warm-stderr.txt
cat topo-warm-stderr.txt
grep -q "cache: 8 hits, 0 misses" topo-warm-stderr.txt
cmp topo-cold.json topo-warm.json
# The energy analysis of the v4 report file is the inline run's.
"$MATIC" energy --report topo-cold.json --quiet --out topo-energy-report.json
"$MATIC" energy --chips 2 --voltages 0.50,0.90 \
  --benchmarks mnist --topology "$TOPO" --scale 0.1 --epochs 0.2 \
  --cache-dir topo-cache --quiet --out topo-energy-inline.json
cmp topo-energy-report.json topo-energy-inline.json
# Served leg: the daemon streams the same bytes for the same spec.
"$MATIC" serve --listen topo.sock --workers 2 2> topo-serve-stderr.txt &
SERVE_PID=$!
for i in $(seq 1 100); do [ -S topo.sock ] && break; sleep 0.1; done
[ -S topo.sock ]
"$MATIC" submit --socket topo.sock \
  --chips 2 --voltages 0.50,0.90 --benchmarks mnist --topology "$TOPO" \
  --scale 0.1 --epochs 0.2 --out topo-served.json
cmp topo-cold.json topo-served.json
"$MATIC" shutdown --socket topo.sock
wait $SERVE_PID
# A malformed chain and a shape mismatch are structured CLI errors.
! "$MATIC" sweep --topology '10x10x1;convXx4' --quiet 2> topo-err.txt
grep -q -- '--topology' topo-err.txt
! "$MATIC" sweep --benchmarks bscholes --topology "$TOPO" \
  --scale 0.1 --epochs 0.2 --quiet 2> topo-io-err.txt
grep -q 'bscholes' topo-io-err.txt
# Stock MLP sweeps are untouched by all of this: still v3, no
# topologies field.
"$MATIC" sweep --chips 1 --voltages 0.90 --benchmarks inversek2j \
  --scale 0.1 --epochs 0.2 --threads 2 --quiet --out stock.json
grep -q '"matic.sweep-report/v3"' stock.json
! grep -q '"topologies"' stock.json
