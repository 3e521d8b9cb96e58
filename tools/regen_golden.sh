#!/bin/sh
# Regenerate the paper-artifact goldens (tests/data/golden/*.json) and
# the generated blocks of EXPERIMENTS.md, then show what changed. The
# `paper` ctests compare both bit-identically, so any intentional model
# change lands here first; review the diff before committing it.
#
# usage: tools/regen_golden.sh [build-dir]     (default: build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
golden_bin="$build_dir/tools/vdram_golden"
golden_dir="$repo_root/tests/data/golden"
experiments="$repo_root/EXPERIMENTS.md"

if [ ! -x "$golden_bin" ]; then
    echo "error: $golden_bin not built (cmake --build $build_dir)" >&2
    exit 1
fi

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT
# Exit 1 means a verdict failed: still install the files, so the diff
# shows what moved, and report the failure at the end.
status=0
"$golden_bin" --out="$out_dir" || status=$?
[ "$status" -le 1 ] || exit "$status"

mkdir -p "$golden_dir"
cp "$out_dir"/*.json "$golden_dir"/

# Replace the lines between "<!-- paper:NAME -->" and "<!-- /paper:NAME -->"
# with the artifact's generated markdown.
awk -v dir="$out_dir" '
    /^<!-- paper:[a-z0-9_]+ -->$/ {
        print
        name = $2
        sub(/^paper:/, "", name)
        file = dir "/" name ".md"
        while ((getline line < file) > 0)
            print line
        close(file)
        skip = 1
        next
    }
    /^<!-- \/paper:/ { skip = 0 }
    !skip { print }
' "$experiments" > "$out_dir/EXPERIMENTS.md"
cp "$out_dir/EXPERIMENTS.md" "$experiments"

echo
echo "== golden and EXPERIMENTS.md diff =="
if git -C "$repo_root" diff --stat --exit-code -- tests/data/golden \
        EXPERIMENTS.md; then
    echo "paper artifacts unchanged"
else
    echo
    git -C "$repo_root" diff -- tests/data/golden EXPERIMENTS.md | head -200
    echo
    echo "review the diff above, then commit tests/data/golden and" \
         "EXPERIMENTS.md"
fi
if [ "$status" -ne 0 ]; then
    echo "error: a paper verdict fails (run $golden_bin)" >&2
fi
exit "$status"
