#!/bin/sh
# The Pareto order `vdram sensitivity` prints must be the order pinned by
# the Table III golden file, at one job and at three. Parameters with
# equal spread ("Number of logic gates" and "Logic toggle rate" on this
# part) are where two implementations of the ranking would disagree.
#
# Usage: cli_sensitivity_order_test.sh <path-to-vdram_cli> <golden.json>
set -e

CLI="$1"
GOLDEN="$2"
if [ ! -x "$CLI" ] || [ ! -f "$GOLDEN" ]; then
    echo "usage: $0 <path-to-vdram_cli> <tab3_sensitivity_ranking.json>" >&2
    exit 1
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# Only the "ranking" array: the golden also carries the paper devices'
# ranks after it.
sed 's/.*"ranking":\[//; s/\].*//' "$GOLDEN" | grep -o '"name":"[^"]*"' |
    sed 's/^"name":"//; s/"$//' > "$DIR/golden.txt"
test -s "$DIR/golden.txt"

for jobs in 1 3; do
    "$CLI" sensitivity preset:ddr3_1g_55 --jobs="$jobs" 2> /dev/null |
        sed -n 's/^| \([^|]*[^ |]\) *|.*/\1/p' | sed 1d \
        > "$DIR/cli_$jobs.txt"
    if ! cmp -s "$DIR/golden.txt" "$DIR/cli_$jobs.txt"; then
        echo "FAIL: --jobs=$jobs order differs from the golden ranking" >&2
        diff "$DIR/golden.txt" "$DIR/cli_$jobs.txt" >&2 || true
        exit 1
    fi
done
echo "sensitivity order matches the golden ranking"
