#!/bin/sh
# Scheduler and trace-renderer byte identity against the real CLI binary.
#
# tests/data/sched/ holds `vdram sched` output written by an earlier
# release: one rendered trace per cell of a small grid (workloads zipf,
# mixed, stream × maps xor-bank-row-col, row-bank-col × policies inorder,
# frfcfs × pages open, closed; 300 accesses each), the stderr stats line
# of every cell, and the `sched --matrix` table at the same count. Any
# change to the scheduler's choice order, its timing or the renderer
# moves a byte here.
#
# Usage: cli_sched_bytes_test.sh <path-to-vdram_cli> <fixture-dir> [--regen]
# --regen rewrites the fixtures from the given binary (only on a
# deliberate change of the schedule or of the trace format).
set -e

CLI="$1"
DATA="$2"
REGEN="$3"
if [ -z "$CLI" ] || [ ! -x "$CLI" ] || [ ! -d "$DATA" ]; then
    echo "usage: $0 <path-to-vdram_cli> <fixture-dir> [--regen]" >&2
    exit 1
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
TARGET=preset:ddr3_1g_55
COUNT=300

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

: > "$DIR/stats.txt"
for workload in zipf mixed stream; do
    for map in xor-bank-row-col row-bank-col; do
        for policy in inorder frfcfs; do
            for page in open closed; do
                cell="$workload-$map-$policy-$page"
                "$CLI" sched "$TARGET" --workload="$workload" \
                    --map="$map" --policy="$policy" --page="$page" \
                    --count="$COUNT" \
                    > "$DIR/$cell.trace" 2>> "$DIR/stats.txt" ||
                    fail "$cell: sched exited non-zero"
            done
        done
    done
done
"$CLI" sched "$TARGET" --count="$COUNT" --matrix \
    > "$DIR/matrix.txt" 2> /dev/null || fail "sched --matrix failed"

if [ "$REGEN" = "--regen" ]; then
    cp "$DIR"/*.trace "$DIR/stats.txt" "$DIR/matrix.txt" "$DATA/"
    echo "regenerated $DATA"
    exit 0
fi

for out in "$DIR"/*.trace "$DIR/stats.txt" "$DIR/matrix.txt"; do
    name=$(basename "$out")
    [ -s "$DATA/$name" ] || fail "missing fixture $DATA/$name"
    cmp -s "$out" "$DATA/$name" || {
        diff "$DATA/$name" "$out" | head -n 10 >&2
        fail "$name differs from the committed fixture"
    }
done
[ "$(ls "$DATA"/*.trace | wc -l)" = "$(ls "$DIR"/*.trace | wc -l)" ] ||
    fail "fixture directory holds cells the grid does not produce"

echo "PASS"
