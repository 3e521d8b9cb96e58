#!/bin/sh
# A command whose standard output cannot be written must fail: `sched`
# and `gen-trace` into /dev/full (every write fails with ENOSPC) exit 1
# with an E-IO-WRITE diagnostic instead of reporting success, while the
# same commands into /dev/null still exit 0.
#
# Usage: cli_stdout_write_error_test.sh <path-to-vdram_cli>
# Exits 77 (skipped) where the system has no /dev/full.
set -e

CLI="$1"
if [ -z "$CLI" ] || [ ! -x "$CLI" ]; then
    echo "usage: $0 <path-to-vdram_cli>" >&2
    exit 1
fi
if [ ! -c /dev/full ]; then
    echo "SKIP: no /dev/full"
    exit 77
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

# name, then the command's arguments
check() {
    name="$1"
    shift
    "$CLI" "$@" > /dev/null 2> "$DIR/err.txt" ||
        fail "$name into /dev/null: exit $?, want 0"
    set +e
    "$CLI" "$@" > /dev/full 2> "$DIR/err.txt"
    got=$?
    set -e
    [ "$got" = 1 ] || fail "$name into /dev/full: exit $got, want 1"
    grep -q "E-IO-WRITE" "$DIR/err.txt" ||
        fail "$name into /dev/full: stderr lacks E-IO-WRITE"
}

check sched sched preset:ddr3_1g_55 --count=2000
check gen-trace gen-trace preset:ddr3_1g_55 zipf 2000

echo "PASS"
