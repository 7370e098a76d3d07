#!/usr/bin/env bash
# The distributed-determinism gate: a 3-daemon `matic shard-sweep` must
# merge to bytes identical to the single-process `matic sweep` — over
# Unix sockets, over the vendored HTTP/1.1 transport, and with one
# daemon SIGKILLed mid-run (its shard fails over to a survivor and the
# shared content-addressed cache replays whatever it had checkpointed).
#
# Everything lands under shard-smoke/ (reports, daemon logs, pids) so
# CI can upload the directory as an artifact when a cmp fails.
set -euo pipefail
MATIC=${MATIC:-./target/release/matic}

DIR=shard-smoke
rm -rf "$DIR"
mkdir -p "$DIR"

GRID=(--chips 4 --voltages 0.50,0.90 --benchmarks inversek2j
      --scale 0.2 --epochs 0.3 --seed 11)

start_daemon() { # name [extra serve args...]
  local name=$1; shift
  "$MATIC" serve --listen "$DIR/$name.sock" --workers 1 \
    --cache-dir "$DIR/cache" "$@" 2> "$DIR/$name.log" &
  echo $! > "$DIR/$name.pid"
}

start_daemon d0
start_daemon d1
start_daemon d2 --http 127.0.0.1:0
for f in "$DIR"/d0.sock "$DIR"/d1.sock "$DIR"/d2.sock "$DIR"/d2.sock.http; do
  for i in $(seq 1 100); do [ -e "$f" ] && break; sleep 0.1; done
  [ -e "$f" ]
done
HTTP=$(cat "$DIR/d2.sock.http")

# The single-process reference bytes (report + per-cell CSV).
"$MATIC" sweep "${GRID[@]}" --threads 2 --quiet \
  --out "$DIR/batch.json" --csv "$DIR/batch.csv"

# Unix-socket sharding: the merged report and CSV are cmp-identical.
"$MATIC" shard-sweep "${GRID[@]}" \
  --daemons "$DIR/d0.sock,$DIR/d1.sock,$DIR/d2.sock" \
  --out "$DIR/merged-unix.json" --csv "$DIR/merged-unix.csv"
cmp "$DIR/batch.json" "$DIR/merged-unix.json"
cmp "$DIR/batch.csv" "$DIR/merged-unix.csv"

# HTTP sharding: one daemon addressed over the remote transport, still
# three shards, still byte-identical (and warm: the daemons share the
# cache the Unix run just filled).
"$MATIC" shard-sweep "${GRID[@]}" \
  --daemons "$DIR/d0.sock,$DIR/d1.sock,http://$HTTP" --shards 3 \
  --out "$DIR/merged-http.json"
cmp "$DIR/batch.json" "$DIR/merged-http.json"

# Failover: a cold-seed run (nothing cached for seed 99) with one
# daemon SIGKILLed mid-run must still merge byte-identically. The kill
# lands as soon as d0 has accepted its shard: the full-scale mnist
# cells keep that shard busy for far longer than the poll step.
FAILGRID=(--chips 6 --voltages 0.50,0.90 --benchmarks mnist
          --scale 1.0 --epochs 1.0 --seed 99)
"$MATIC" sweep "${FAILGRID[@]}" --threads 2 --quiet --out "$DIR/batch99.json"
"$MATIC" shard-sweep "${FAILGRID[@]}" \
  --daemons "$DIR/d0.sock,$DIR/d1.sock,$DIR/d2.sock" --timeout-secs 30 \
  --out "$DIR/merged-failover.json" 2> "$DIR/failover.log" &
SHARD_PID=$!
for i in $(seq 1 1500); do
  grep -q "accepted on $DIR/d0.sock" "$DIR/failover.log" && break
  sleep 0.02
done
kill -9 "$(cat "$DIR/d0.pid")"
wait "$SHARD_PID"
cat "$DIR/failover.log"
grep -q "retrying on" "$DIR/failover.log"
cmp "$DIR/batch99.json" "$DIR/merged-failover.json"

# Drain the survivors (d0 died above), one via HTTP.
"$MATIC" shutdown --socket "$DIR/d1.sock"
"$MATIC" shutdown --socket "http://$HTTP"
wait || true
echo "shard-smoke: every merge byte-identical to the single-process sweep"
