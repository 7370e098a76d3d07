#!/usr/bin/env bash
# The service contract end-to-end, through the real binary and a real
# socket: a report streamed out of the daemon is byte-identical to the
# batch `matic sweep` run of the same plan, a warm resubmit replays
# everything from the daemon's cache, cancel stops a job without
# poisoning the cache, and shutdown drains cleanly.
set -euo pipefail
MATIC=${MATIC:-./target/release/matic}

"$MATIC" serve --listen serve.sock --workers 2 \
  --cache-dir serve-cache 2> serve-stderr.txt &
SERVE_PID=$!
# A failing step must not leave the daemon behind.
trap 'kill $SERVE_PID 2> /dev/null || true' EXIT
for i in $(seq 1 100); do [ -S serve.sock ] && break; sleep 0.1; done
[ -S serve.sock ]
# The batch reference bytes for the same plan.
"$MATIC" sweep --chips 2 --voltages 0.50,0.90 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 2 --quiet --out batch.json
# Submit job 1: the streamed report must be byte-identical.
"$MATIC" submit --socket serve.sock \
  --chips 2 --voltages 0.50,0.90 --benchmarks inversek2j \
  --scale 0.2 --epochs 0.3 --out served.json
cmp batch.json served.json
# Job 2, same plan: a warm resubmit replays from the daemon's cache.
"$MATIC" submit --socket serve.sock \
  --chips 2 --voltages 0.50,0.90 --benchmarks inversek2j \
  --scale 0.2 --epochs 0.3 --out served-warm.json 2> warm.txt
cat warm.txt
grep -q "8 hits, 0 deduped, 0 misses" warm.txt
cmp batch.json served-warm.json
# Synthetic fault-model jobs go through the same daemon: the streamed
# report must match the batch bytes on both axes.
"$MATIC" sweep --chips 2 --bers 0.001,0.004 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 2 --quiet --out batch-ber.json
"$MATIC" submit --socket serve.sock \
  --chips 2 --bers 0.001,0.004 --benchmarks inversek2j \
  --scale 0.2 --epochs 0.3 --out served-ber.json
cmp batch-ber.json served-ber.json
"$MATIC" sweep --chips 2 --clock-stress 0.4,0.8 \
  --benchmarks inversek2j --scale 0.2 --epochs 0.3 \
  --threads 2 --quiet --out batch-clock.json
"$MATIC" submit --socket serve.sock \
  --chips 2 --clock-stress 0.4,0.8 --benchmarks inversek2j \
  --scale 0.2 --epochs 0.3 --out served-clock.json
cmp batch-clock.json served-clock.json
"$MATIC" status --socket serve.sock
# Cancelling an unknown job is a structured error, not a hang.
! "$MATIC" cancel 999 --socket serve.sock
# Job 5: cancel it mid-flight, then resubmit — the resumed run replays
# the cancelled prefix and still matches batch bytes. The cancel goes
# out on the job's first progress line that reports a finished cell
# (progress streams from admission, so earlier lines read 0 cells);
# each FaceDet die trains its own MAT model, so 8 of them keep the job
# running well past that line.
GRID99=(--chips 8 --voltages 0.46,0.50,0.55,0.60 --benchmarks facedet
  --scale 0.5 --epochs 0.5 --seed 99)
"$MATIC" submit --socket serve.sock "${GRID99[@]}" \
  --out cancelled.json 2> cancelled.txt &
SUBMIT_PID=$!
for i in $(seq 1 600); do
  grep -Eq "^submit: job [0-9]+ [1-9][0-9]*/[0-9]+ cells" cancelled.txt && break
  sleep 0.05
done
JOB=$(sed -n 's/^submit: job \([0-9]*\) accepted.*/\1/p' cancelled.txt)
[ -n "$JOB" ]
"$MATIC" cancel "$JOB" --socket serve.sock | tee cancel-reply.txt
if grep -q "(was done)" cancel-reply.txt; then
  echo "job $JOB finished before the cancel arrived; the step tested nothing" >&2
  exit 1
fi
wait $SUBMIT_PID || true
cat cancelled.txt
grep -q "was cancelled after" cancelled.txt
"$MATIC" submit --socket serve.sock "${GRID99[@]}" \
  --out resumed.json 2> resumed.txt
cat resumed.txt
# The resume must both replay the checkpointed prefix and compute the rest.
grep -Eq "done -> resumed.json \([1-9][0-9]* hits, [0-9]+ deduped, [1-9][0-9]* misses\)" resumed.txt
"$MATIC" sweep "${GRID99[@]}" --threads 2 --quiet --out batch99.json
cmp batch99.json resumed.json
# Drain: the daemon acks, exits cleanly, and removes its socket. Its
# accept loop blocks in accept(), so the shutdown must wake it: give it
# 30 s to exit rather than hang on `wait`.
"$MATIC" shutdown --socket serve.sock
for i in $(seq 1 300); do kill -0 $SERVE_PID 2> /dev/null || break; sleep 0.1; done
if kill -0 $SERVE_PID 2> /dev/null; then
  echo "the daemon is still running 30 s after shutdown" >&2
  cat serve-stderr.txt >&2
  kill $SERVE_PID
  exit 1
fi
wait $SERVE_PID
[ ! -e serve.sock ]
cat serve-stderr.txt
