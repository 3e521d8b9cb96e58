#!/bin/sh
# End-to-end chaos test for the supervised serve fleet.
#
# Starts `vdram fleet` with 3 workers behind one front socket, floods it
# with request batches from concurrent clients, then kill -9s workers
# mid-flight and checks:
#   - a long-lived session rides the crash: the supervisor respawns the
#     worker and the router replays the session (responses after the
#     kill carry "failover":true),
#   - SIGINT drains the whole fleet to the standard exit code 5,
#   - the final stats line upholds the summed accounting invariant
#     accepted == written + failed (no accepted request is lost),
#   - every worker drained (workersDrained) and the drain was clean.
#
# Usage: cli_fleet_chaos_test.sh <path-to-vdram_cli>
set -e

CLI="$1"
if [ -z "$CLI" ] || [ ! -x "$CLI" ]; then
    echo "usage: $0 <path-to-vdram_cli>" >&2
    exit 1
fi

DIR=$(mktemp -d)
SOCK="$DIR/fleet.sock"
trap 'rm -rf "$DIR"' EXIT

# Workers inherit the failpoint env: every request sleeps 5 ms, so the
# victim batch below stays in flight long enough for the kill to land.
VDRAM_FAILPOINTS="serve.request=delay:5" \
"$CLI" fleet --socket="$SOCK" --workers=3 --heartbeat=0.05 \
    --restart-base-ms=20 --restart-budget=12 --failover-wait=10 \
    --queue=64 --ready-marker \
    2> "$DIR/fleet.err" &
PID=$!

i=0
while ! grep -q "VDRAM-READY" "$DIR/fleet.err" 2>/dev/null &&
      [ $i -lt 200 ]; do
    sleep 0.05
    i=$((i + 1))
done
if ! grep -q "VDRAM-READY" "$DIR/fleet.err" 2>/dev/null; then
    echo "FAIL: fleet never printed the ready marker" >&2
    cat "$DIR/fleet.err" >&2
    exit 1
fi

# Background flood: short sessions with loads and perturbs, looping.
BATCH="$DIR/batch.txt"
{
    printf '{"id":1,"op":"load","preset":"ddr3_1g_55"}\n'
    n=2
    while [ $n -le 20 ]; do
        printf '{"id":%d,"op":"evaluate"}\n' "$n"
        printf '{"id":%d,"op":"perturb","param":"Cell capacitance","factor":1.1}\n' "$((n + 1))"
        n=$((n + 2))
    done
} > "$BATCH"
for c in 1 2 3; do
    (
        k=0
        while [ $k -lt 20 ]; do
            "$CLI" serve-send --socket="$SOCK" < "$BATCH" \
                >> "$DIR/client$c.out" 2>> "$DIR/client$c.err" || break
            k=$((k + 1))
        done
    ) &
done

# One more flood client loads the same device as DSL text (the emitted,
# JSON-escaped description), so text loads ride the kill -9 failover
# and its replay too.
TEXTBATCH="$DIR/textbatch.txt"
{
    printf '{"id":1,"op":"load","text":"'
    "$CLI" emit preset:ddr2_1g_75 |
        sed 's/\\/\\\\/g; s/"/\\"/g' | awk '{ printf "%s\\n", $0 }'
    printf '"}\n'
    n=2
    while [ $n -le 20 ]; do
        printf '{"id":%d,"op":"evaluate"}\n' "$n"
        printf '{"id":%d,"op":"perturb","param":"Cell capacitance","factor":1.1}\n' "$((n + 1))"
        n=$((n + 2))
    done
} > "$TEXTBATCH"
(
    k=0
    while [ $k -lt 20 ]; do
        "$CLI" serve-send --socket="$SOCK" < "$TEXTBATCH" \
            >> "$DIR/textclient.out" 2>> "$DIR/textclient.err" || break
        k=$((k + 1))
    done
) &

# The victim session: one slow batch on ONE connection (one fleet
# session), so the kill lands while the session is in flight and the
# router must fail it over. Evaluations are not replayed (only the
# load + acked perturbs are). The batch is kept small enough that the
# responses fit in socket buffers (serve-send writes all requests
# before reading), and slow enough (5 ms/request, via the failpoint
# above) that it is still in flight when the workers are killed.
LONG="$DIR/long.txt"
{
    printf '{"id":1,"op":"load","preset":"ddr2_1g_75"}\n'
    printf '{"id":2,"op":"perturb","param":"Cell capacitance","factor":1.2}\n'
    n=3
    while [ $n -le 600 ]; do
        printf '{"id":%d,"op":"evaluate"}\n' "$n"
        n=$((n + 1))
    done
} > "$LONG"

# Kill -9 every current worker mid-batch; whichever held the victim
# session forces a failover. Retry the round if the batch finished
# before the kill landed (timing insurance, budget 12 per slot).
sawfailover=0
round=1
while [ $round -le 3 ] && [ $sawfailover -eq 0 ]; do
    : > "$DIR/victim.out"
    "$CLI" serve-send --socket="$SOCK" --retries=5 < "$LONG" \
        > "$DIR/victim.out" 2> "$DIR/victim.err" &
    VICTIM=$!
    sleep 0.3
    PIDS=$(sed -n 's/^fleet: worker \([0-9]*\) pid \([0-9]*\) .*spawned.*/\1 \2/p' \
        "$DIR/fleet.err" | awk '{latest[$1]=$2} END {for (w in latest) print latest[w]}')
    for wpid in $PIDS; do
        kill -9 "$wpid" 2>/dev/null || true
    done
    wait "$VICTIM" || true
    if grep -q '"failover":true' "$DIR/victim.out"; then
        sawfailover=1
    fi
    round=$((round + 1))
done

if [ $sawfailover -ne 1 ]; then
    echo "FAIL: no failover-marked response after kill -9" >&2
    tail -20 "$DIR/victim.out" >&2 || true
    cat "$DIR/victim.err" >&2 || true
    cat "$DIR/fleet.err" >&2
    exit 1
fi
# The failed-over request must still have been answered ok.
if ! grep -q '"ok":true.*"failover":true' "$DIR/victim.out"; then
    echo "FAIL: failover response was not ok" >&2
    grep '"failover"' "$DIR/victim.out" | head -3 >&2
    exit 1
fi

# The supervisor must have respawned the killed workers.
if ! grep -q 'restart ' "$DIR/fleet.err"; then
    echo "FAIL: no restart event after kill -9" >&2
    cat "$DIR/fleet.err" >&2
    exit 1
fi

# Drain the fleet mid-flood.
kill -INT "$PID" 2>/dev/null || true
set +e
wait "$PID"
STATUS=$?
set -e
wait || true

if [ "$STATUS" != 5 ]; then
    echo "FAIL: drained fleet exited $STATUS (want 5)" >&2
    cat "$DIR/fleet.err" >&2
    exit 1
fi

STATS=$(grep '^fleet: {' "$DIR/fleet.err" | tail -1)
if [ -z "$STATS" ]; then
    echo "FAIL: no final stats line on stderr" >&2
    cat "$DIR/fleet.err" >&2
    exit 1
fi

field() {
    printf '%s\n' "$STATS" |
        sed -n "s/.*\"$1\":\\([0-9][0-9]*\\).*/\\1/p"
}
bfield() {
    printf '%s\n' "$STATS" |
        sed -n "s/.*\"$1\":\\(true\\|false\\).*/\\1/p"
}
ACCEPTED=$(field requestsAccepted)
WRITTEN=$(field responsesWritten)
FAILED=$(field responsesFailed)
FAILOVERS=$(field failovers)
RESTARTS=$(field restarts)
if [ -z "$ACCEPTED" ] || [ -z "$WRITTEN" ] || [ -z "$FAILED" ]; then
    echo "FAIL: could not parse stats line: $STATS" >&2
    exit 1
fi
if [ "$ACCEPTED" != "$((WRITTEN + FAILED))" ]; then
    echo "FAIL: accounting broken: accepted=$ACCEPTED" \
         "written=$WRITTEN failed=$FAILED" >&2
    exit 1
fi
if [ "${FAILOVERS:-0}" -lt 1 ]; then
    echo "FAIL: stats report no failover: $STATS" >&2
    exit 1
fi
if [ "${RESTARTS:-0}" -lt 1 ]; then
    echo "FAIL: stats report no restart: $STATS" >&2
    exit 1
fi
if [ "$(bfield invariantHolds)" != "true" ]; then
    echo "FAIL: stats deny the invariant: $STATS" >&2
    exit 1
fi
if [ "$(bfield workersDrained)" != "true" ]; then
    echo "FAIL: not every worker drained to exit 5: $STATS" >&2
    exit 1
fi

# The text client's loads were answered (parsed or cache hits alike).
if ! grep -q '"id":1,"ok":true,"device":"1Gb DDR2-800' "$DIR/textclient.out"; then
    echo "FAIL: no DSL text load was answered" >&2
    head -3 "$DIR/textclient.out" "$DIR/textclient.err" >&2 || true
    exit 1
fi

echo "ok: fleet survived kill -9 (failovers=$FAILOVERS" \
     "restarts=$RESTARTS) and drained clean (exit 5)," \
     "accepted=$ACCEPTED written=$WRITTEN failed=$FAILED"
