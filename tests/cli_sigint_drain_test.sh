#!/bin/sh
# End-to-end graceful-drain test against the real CLI binary.
#
# Starts a fault-injected Monte-Carlo campaign with a checkpoint, sends
# SIGINT once at least one record is persisted, then resumes and checks
# the final aggregate is byte-identical to an uninterrupted run with the
# same flags: no non-faulted variant may be lost across the interrupt.
# Faults come from the runner.task failpoint (VDRAM_FAILPOINTS), and the
# interrupted run must report at least one timed-out task, so the test
# fails if the failpoint stops stalling tasks.
#
# Usage: cli_sigint_drain_test.sh <path-to-vdram_cli>
set -e

CLI="$1"
if [ -z "$CLI" ] || [ ! -x "$CLI" ]; then
    echo "usage: $0 <path-to-vdram_cli>" >&2
    exit 1
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
CKPT="$DIR/ckpt.jsonl"

# Stalled tasks slow the run down enough for the signal to land
# mid-campaign; --task-timeout keeps each stall short.
VDRAM_FAILPOINTS="runner.task=stall@0.5"
export VDRAM_FAILPOINTS
FLAGS="--samples=80 --seed=3 --task-timeout=0.05"

"$CLI" montecarlo preset:ddr2_1g_75 $FLAGS --jobs=2 \
    --checkpoint="$CKPT" --ready-marker \
    > "$DIR/partial.txt" 2> "$DIR/partial.err" &
PID=$!

# Wait for the drain handler to be armed (the CLI prints VDRAM-READY to
# stderr right after installing it). Signalling earlier would hit the
# default SIGINT disposition and kill the process (exit 130) instead of
# draining it — the startup race this marker closes.
i=0
while ! grep -q "VDRAM-READY" "$DIR/partial.err" 2>/dev/null &&
      [ $i -lt 200 ]; do
    sleep 0.05
    i=$((i + 1))
done
if ! grep -q "VDRAM-READY" "$DIR/partial.err" 2>/dev/null; then
    echo "FAIL: CLI never printed the ready marker" >&2
    cat "$DIR/partial.err" >&2
    exit 1
fi

# Then wait for the first checkpoint record so the interrupt is mid-run.
i=0
while [ ! -s "$CKPT" ] && [ $i -lt 200 ]; do
    sleep 0.05
    i=$((i + 1))
done
kill -INT "$PID" 2>/dev/null || true
set +e
wait "$PID"
STATUS=$?
set -e

# 5 = drained mid-run (the interesting case); 0 = the campaign finished
# before the signal landed (slow machine) — resume still must agree.
if [ "$STATUS" != 5 ] && [ "$STATUS" != 0 ]; then
    echo "FAIL: interrupted run exited $STATUS (want 5 or 0)" >&2
    cat "$DIR/partial.err" >&2
    exit 1
fi

# The run report (stderr) counts the stalled tasks the watchdog cut off.
TIMED_OUT=$(sed -n 's/.* timed-out \([0-9][0-9]*\) .*/\1/p' \
    "$DIR/partial.err" | tail -n 1)
if [ -z "$TIMED_OUT" ] || [ "$TIMED_OUT" -lt 1 ]; then
    echo "FAIL: interrupted run reports no timed-out task" \
         "(got '${TIMED_OUT}')" >&2
    cat "$DIR/partial.err" >&2
    exit 1
fi

"$CLI" montecarlo preset:ddr2_1g_75 $FLAGS --jobs=2 \
    --checkpoint="$CKPT" --resume \
    > "$DIR/resumed.txt" 2> "$DIR/resumed.err"

"$CLI" montecarlo preset:ddr2_1g_75 $FLAGS \
    > "$DIR/reference.txt" 2> /dev/null

if ! cmp -s "$DIR/resumed.txt" "$DIR/reference.txt"; then
    echo "FAIL: resumed aggregate differs from uninterrupted run" >&2
    diff "$DIR/reference.txt" "$DIR/resumed.txt" >&2 || true
    exit 1
fi

if [ "$STATUS" = 5 ]; then
    echo "ok: SIGINT drained (exit 5, $TIMED_OUT timed out)," \
         "resume byte-identical"
else
    echo "ok: run finished before signal ($TIMED_OUT timed out)," \
         "resume byte-identical"
fi
