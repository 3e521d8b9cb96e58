#!/bin/sh
# Checkpoint compatibility test against the real CLI binary.
#
# tests/data/ckpt/ holds checkpoints written by an earlier release of
# vdram (the commands are the ones below). This test pins two
# properties of the checkpoint boundary:
#
#  1. Byte identity: today's binary writes exactly those bytes for the
#     same campaign, so the %.17g payload text is a stable format.
#  2. Resume compatibility: a truncated copy of each committed file (the
#     first records plus a torn half record, what a kill -9 leaves)
#     resumes to the same stdout as an uninterrupted run with no
#     checkpoint at all. The fit, whose trajectory checkpoint is written
#     by the fit engine, is checked the same way from a fresh file.
#
# Usage: cli_checkpoint_compat_test.sh <path-to-vdram_cli> <fixture-dir>
set -e

CLI="$1"
DATA="$2"
if [ -z "$CLI" ] || [ ! -x "$CLI" ] || [ ! -d "$DATA" ]; then
    echo "usage: $0 <path-to-vdram_cli> <fixture-dir>" >&2
    exit 1
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Keep the first KEEP records of $1 and half of the next one.
truncate_copy() {
    src="$1"
    dst="$2"
    keep="$3"
    head -n "$keep" "$src" > "$dst"
    line=$(sed -n "$((keep + 1))p" "$src")
    printf '%s' "$line" | cut -c1-$(( ${#line} / 2 )) | tr -d '\n' \
        >> "$dst"
}

# check NAME KEEP ARGS...: byte identity against the fixture, then the
# truncated-resume leg.
check() {
    name="$1"
    keep="$2"
    shift 2
    fixture="$DATA/$name.jsonl"
    [ -s "$fixture" ] || fail "missing fixture $fixture"

    "$CLI" "$@" > "$DIR/$name.plain" 2> /dev/null ||
        fail "$name: plain run failed"

    rm -f "$DIR/$name.jsonl"
    "$CLI" --checkpoint="$DIR/$name.jsonl" "$@" \
        > "$DIR/$name.ckpt.out" 2> /dev/null ||
        fail "$name: checkpointed run failed"
    if ! cmp -s "$fixture" "$DIR/$name.jsonl"; then
        diff "$fixture" "$DIR/$name.jsonl" >&2 || true
        fail "$name: checkpoint bytes differ from $fixture"
    fi
    cmp -s "$DIR/$name.plain" "$DIR/$name.ckpt.out" ||
        fail "$name: checkpointing changed the output"

    truncate_copy "$fixture" "$DIR/$name.torn.jsonl" "$keep"
    "$CLI" --checkpoint="$DIR/$name.torn.jsonl" --resume "$@" \
        > "$DIR/$name.resumed" 2> "$DIR/$name.resumed.err" || {
        cat "$DIR/$name.resumed.err" >&2
        fail "$name: resume from a truncated checkpoint failed"
    }
    grep -q "resumed $keep " "$DIR/$name.resumed.err" ||
        fail "$name: resume did not restore $keep task(s)"
    if ! cmp -s "$DIR/$name.plain" "$DIR/$name.resumed"; then
        diff "$DIR/$name.plain" "$DIR/$name.resumed" >&2 || true
        fail "$name: resumed output differs from the uninterrupted run"
    fi
    cmp -s "$fixture" "$DIR/$name.torn.jsonl" ||
        fail "$name: consolidated resumed checkpoint differs from $fixture"
}

check montecarlo 5 montecarlo preset:ddr3_1g_55 --samples=12 --seed=5
check montecarlo_jobs2 7 --jobs=2 montecarlo preset:ddr2_1g_75 \
    --samples=16 --seed=9
check sched_matrix 30 sched preset:ddr3_1g_55 --matrix --count=200
check sensitivity 11 sensitivity preset:ddr3_1g_55
check trends 6 trends
check sweep 1 sweep preset:ddr3_1g_55 "Bitline capacitance" 0.5 1 1.5

# Fit: the trajectory checkpoint is a fresh file (its generation count
# depends on convergence), truncated after three generations.
cat > "$DIR/targets.json" <<'EOF'
{
  "name": "checkpoint-compat",
  "parameters": ["Constant current adder", "Bitline capacitance"],
  "targets": [
    {"measure": "IDD0", "ma": 80.0},
    {"measure": "IDD4R", "ma": 190.0}
  ]
}
EOF
FIT="fit preset:ddr3_1g_55 --targets=$DIR/targets.json --seed=3"
FIT="$FIT --max-generations=8"
set +e
"$CLI" $FIT > "$DIR/fit.plain" 2> /dev/null
REF=$?
"$CLI" --checkpoint="$DIR/fit.jsonl" $FIT > /dev/null 2> /dev/null
set -e
[ "$REF" = 0 ] || [ "$REF" = 1 ] || fail "reference fit exited $REF"
[ "$(wc -l < "$DIR/fit.jsonl")" -gt 4 ] ||
    fail "fit wrote too few trajectory records"
truncate_copy "$DIR/fit.jsonl" "$DIR/fit.torn.jsonl" 3
set +e
"$CLI" --checkpoint="$DIR/fit.torn.jsonl" --resume $FIT \
    > "$DIR/fit.resumed" 2> "$DIR/fit.resumed.err"
STATUS=$?
set -e
[ "$STATUS" = "$REF" ] || {
    cat "$DIR/fit.resumed.err" >&2
    fail "resumed fit exited $STATUS, reference exited $REF"
}
cmp -s "$DIR/fit.plain" "$DIR/fit.resumed" ||
    fail "fit: resumed description differs from the uninterrupted run"
cmp -s "$DIR/fit.jsonl" "$DIR/fit.torn.jsonl" ||
    fail "fit: consolidated resumed trajectory differs"

echo "ok: checkpoint bytes pinned, truncated checkpoints resume"
