#!/usr/bin/env bash
# Full CI sequence: normal warning-free (-Werror) build + complete test
# suite (also under VDRAM_FASTPATH=verify and VDRAM_SIMD=off), a
# -march=native build of the golden and SIMD-identity suites whose
# end-to-end benchmark digests must match the normal build's, then an
# ASan+UBSan build of the
# robustness surface (parser, validator, diagnostics, CLI lint), a
# ThreadSanitizer build of the batch-runner and serve-daemon concurrency
# surface, failpoint chaos smokes (kill -9 mid-checkpoint + resume
# byte-identity; a serve daemon under injected request crashes; a fleet
# that self-heals a wedged worker and a kill -9), a fault-injection + resume smoke of the CLI, the
# runner throughput benchmark (BENCH_runner.json), the model fast-path
# throughput gate (BENCH_model.json vs the recorded baseline), a fit
# calibration smoke (converge on the committed vendor targets + resume
# byte-identity) with its convergence gate (BENCH_fit.json vs the
# recorded baseline), a scheduler pipe smoke (`vdram sched | vdram
# trace --check` plus the matrix campaign) and an explicit exit-code
# check of the three-defect lint fixture. Run from the repository root.
set -euo pipefail

jobs=$(nproc 2>/dev/null || echo 4)

echo "== release build (-Werror) + full test suite (VDRAM_SIMD default) =="
# The build must stay warning-free: a screen of old warnings hides a
# new one.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== full test suite (VDRAM_FASTPATH=verify, fast path vs rebuild) =="
# Every campaign task runs the delta-evaluation fast path and its
# full-rebuild twin and fails with E-FASTPATH-MISMATCH unless they agree
# byte for byte; the goldens, computed on the fast path, get the
# rebuild as their oracle.
VDRAM_FASTPATH=verify ctest --test-dir build --output-on-failure -j "$jobs"

echo "== full test suite (VDRAM_SIMD=off, scalar reference paths) =="
# The vectorized trace parser and model kernels must be drop-in
# replacements: the whole suite reruns with SIMD dispatch disabled so
# the scalar fallbacks stay a tested source of truth, not dead code.
VDRAM_SIMD=off ctest --test-dir build --output-on-failure -j "$jobs"

echo "== native-target build: goldens, SIMD identity, benchmark digests =="
# The byte-identity contract holds for any x86-64 target: with FMA and
# AVX-512 available the goldens must still match (the root
# CMakeLists.txt pins -ffp-contract=off), and so must the seed-1
# output_digest of every end-to-end benchmark workload.
cmake -B build-native -S . -DCMAKE_CXX_FLAGS=-march=native
cmake --build build-native -j "$jobs" \
      --target vdram_tests bench_e2e vdram_cli
./build-native/tests/vdram_tests --gtest_filter='Golden*:SimdIdentity*'
root=$(pwd)
digestdir=$(mktemp -d)
for workload in mc_campaign trace_replay sched_trace serve_whatif \
                fleet_mixed; do
    for tree in build build-native; do
        # A relative work directory keeps the unix socket paths short.
        (cd "$digestdir" &&
            "$root/$tree/bench/e2e/bench_e2e" --workload="$workload" \
                --seed=1 --seconds=0.4 --scale=0.01 \
                --workdir="$tree-$workload") |
            grep '^output_digest ' > "$digestdir/$tree.digest"
    done
    if ! cmp -s "$digestdir/build.digest" \
            "$digestdir/build-native.digest"; then
        echo "FAIL: $workload output_digest differs between build" \
             "and build-native" >&2
        cat "$digestdir/build.digest" "$digestdir/build-native.digest" >&2
        exit 1
    fi
done
rm -rf "$digestdir"

echo "== sanitized build (ASan + UBSan) =="
cmake -B build-asan -S . -DVDRAM_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$jobs" \
      --target vdram_robustness_tests vdram_cli

echo "== robustness suite under sanitizers =="
ctest --test-dir build-asan -L robustness --output-on-failure -j "$jobs"

echo "== sanitized build (TSan) =="
cmake -B build-tsan -S . -DVDRAM_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$jobs" \
      --target vdram_robustness_tests vdram_cli

echo "== robustness suite under ThreadSanitizer =="
# Includes the serve-daemon tests and the flood + SIGINT drain script
# (cli_serve_drain), so the daemon's accept loop, worker pool and
# session teardown are raced under TSan every run.
ctest --test-dir build-tsan -L robustness --output-on-failure -j "$jobs"

echo "== chaos smoke: kill -9 mid-checkpoint, resume byte-identity =="
# VDRAM_FAILPOINTS=ckpt.append=abort:K aborts the process half-way
# through writing the K-th checkpoint record — a deterministic kill -9
# at the worst instant, leaving a torn trailing line. The resumed run
# must drop the torn record, recompute only what was lost and produce
# an aggregate byte-identical to an undisturbed run.
chaosdir=$(mktemp -d)
trap 'rm -rf "$chaosdir"' EXIT
cli=$(pwd)/build/tools/vdram_cli
(
    cd "$chaosdir"
    "$cli" montecarlo preset:ddr2_1g_75 --samples=60 --seed=11 \
        > expected.txt
    for k in 3 17 41; do
        rm -f chaos.jsonl
        set +e
        VDRAM_FAILPOINTS="ckpt.append=abort:$k" \
            "$cli" montecarlo preset:ddr2_1g_75 --samples=60 --seed=11 \
            --checkpoint=chaos.jsonl > /dev/null 2> /dev/null
        status=$?
        set -e
        if [ "$status" -eq 0 ]; then
            echo "FAIL: ckpt.append=abort:$k never fired" >&2
            exit 1
        fi
        "$cli" montecarlo preset:ddr2_1g_75 --samples=60 --seed=11 \
            --checkpoint=chaos.jsonl --resume > "resumed_$k.txt" \
            2> /dev/null
        cmp expected.txt "resumed_$k.txt"
    done
)

echo "== chaos smoke: serve daemon survives injected request chaos =="
# A daemon with every 3rd-ish request crashing or stalling internally
# must keep answering, then drain cleanly on SIGINT (exit 5).
(
    cd "$chaosdir"
    VDRAM_FAILPOINTS="serve.request=crash@0.3" \
        "$cli" serve --socket=serve.sock --jobs=2 --ready-marker \
        2> serve.err &
    pid=$!
    i=0
    while ! grep -q VDRAM-READY serve.err 2>/dev/null &&
          [ $i -lt 200 ]; do
        sleep 0.05; i=$((i + 1))
    done
    for n in 1 2 3 4 5 6 7 8; do
        printf '{"id":%d,"op":"ping"}\n' "$n"
    done | "$cli" serve-send --socket=serve.sock > chaos_replies.txt
    test "$(wc -l < chaos_replies.txt)" -eq 8
    kill -INT "$pid"
    set +e
    wait "$pid"
    status=$?
    set -e
    if [ "$status" -ne 5 ]; then
        echo "FAIL: chaotic serve daemon exited $status, want 5" >&2
        cat serve.err >&2
        exit 1
    fi
)

echo "== chaos smoke: fleet self-heals a wedged worker =="
# fleet.heartbeat=stall:5 wedges the 5th liveness probe past the
# deadline: the supervisor must SIGKILL the "wedged" worker and respawn
# it. A direct kill -9 of a live worker must heal the same way. The
# healed fleet still answers, then drains to exit 5 with the summed
# accounting invariant intact.
(
    cd "$chaosdir"
    VDRAM_FAILPOINTS="fleet.heartbeat=stall:5" \
        "$cli" fleet --socket=fleet.sock --workers=2 --heartbeat=0.1 \
        --heartbeat-deadline=0.4 --restart-base-ms=20 --ready-marker \
        2> fleet.err &
    pid=$!
    i=0
    while ! grep -q VDRAM-READY fleet.err 2>/dev/null &&
          [ $i -lt 200 ]; do
        sleep 0.05; i=$((i + 1))
    done
    i=0
    while ! grep -q "respawned (gen 2)" fleet.err 2>/dev/null &&
          [ $i -lt 200 ]; do
        sleep 0.05; i=$((i + 1))
    done
    grep -q "heartbeat deadline exceeded" fleet.err
    grep -q "respawned (gen 2)" fleet.err
    # Direct kill -9 of the most recently (re)spawned worker.
    wpid=$(sed -n 's/^fleet: worker [0-9]* pid \([0-9]*\) .*spawned.*/\1/p' \
        fleet.err | tail -1)
    kill -9 "$wpid"
    i=0
    while [ "$(grep -c respawned fleet.err)" -lt 2 ] &&
          [ $i -lt 200 ]; do
        sleep 0.05; i=$((i + 1))
    done
    test "$(grep -c respawned fleet.err)" -ge 2
    printf '{"id":1,"op":"ping"}\n' |
        "$cli" serve-send --socket=fleet.sock > fleet_ping.txt
    grep -q '"pong":true' fleet_ping.txt
    kill -INT "$pid"
    set +e
    wait "$pid"
    status=$?
    set -e
    if [ "$status" -ne 5 ]; then
        echo "FAIL: drained fleet exited $status, want 5" >&2
        cat fleet.err >&2
        exit 1
    fi
    stats=$(grep '^fleet: {' fleet.err | tail -1)
    echo "$stats" | grep -q '"invariantHolds":true'
    echo "$stats" | grep -q '"workersDrained":true'
)

echo "== fault-injection + resume smoke =="
# Two fault-injected campaigns sharing one checkpoint: the second run
# must restore every non-faulted variant and produce the same aggregate.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir" "$chaosdir"' EXIT
cli=$(pwd)/build/tools/vdram_cli
(
    cd "$smokedir"
    "$cli" montecarlo preset:ddr2_1g_75 --samples=100 --seed=7 \
        --inject-fault=0.2 --resume > first.txt
    "$cli" montecarlo preset:ddr2_1g_75 --samples=100 --seed=7 \
        --inject-fault=0.2 --resume > second.txt
    cmp first.txt second.txt
    test -s vdram_montecarlo.jsonl
)

echo "== runner throughput benchmark =="
(cd build && ./bench/bench_runner_throughput)
test -s build/BENCH_runner.json

echo "== model fast-path throughput gate =="
# Fast path must stay bit-identical to the full rebuild and within 20 %
# of the recorded baseline speedup (bench/BENCH_model_baseline.json).
(cd build && ./bench/bench_perf_model \
    --baseline=../bench/BENCH_model_baseline.json)
test -s build/BENCH_model.json

echo "== streaming trace throughput gate =="
# Serial and parallel streaming must stay bit-identical to dense replay
# and within 20 % of the recorded baseline throughput
# (bench/BENCH_trace_baseline.json, see docs/traces.md).
(cd build && ./bench/bench_trace_throughput \
    --baseline=../bench/BENCH_trace_baseline.json)
test -s build/BENCH_trace.json

echo "== fit calibration smoke: converge + resume identity =="
# A tiny calibration against the committed vendor targets must converge
# (every weighted residual inside its tolerance band, exit 0) on 2
# workers. Re-running with --resume against the completed trajectory
# checkpoint must restore every generation and reproduce the calibrated
# description and fit report byte-for-byte.
(
    cd "$smokedir"
    fitflags="--targets=$OLDPWD/examples/data/fit_ddr3_vendor_low.json"
    fitflags="$fitflags --starts=2 --seed=1 --jobs=2"
    "$cli" fit preset:ddr3_1g_55 $fitflags \
        --checkpoint=fit_smoke.jsonl --report=fit_first.json \
        > fit_first.dram 2> /dev/null
    "$cli" fit preset:ddr3_1g_55 $fitflags \
        --checkpoint=fit_smoke.jsonl --resume --report=fit_second.json \
        > fit_second.dram 2> /dev/null
    cmp fit_first.dram fit_second.dram
    cmp fit_first.json fit_second.json
    test -s fit_smoke.jsonl
)

echo "== fit convergence gate =="
# The benchmark fit's evaluation count is deterministic and must match
# the committed baseline exactly; throughput may be at most 20 % below
# it (bench/BENCH_fit_baseline.json, see docs/calibration.md).
(cd build && ./bench/bench_fit_convergence \
    --baseline=../bench/BENCH_fit_baseline.json)
test -s build/BENCH_fit.json

echo "== streaming bounded-memory smoke (100M-cycle trace) =="
# Dense replay of this trace would need a ~400 MB Op vector and is
# rejected (E-TRACE-TOO-LONG); the streamer must evaluate it inside a
# 256 MiB address-space limit.
awk 'BEGIN {
    for (i = 0; i < 199999; ++i) printf "%d ACT\n%d PRE\n", i*500, i*500+20
    print "99999999 NOP"
}' > "$smokedir/long.trace"
(
    ulimit -v 262144
    "$cli" trace preset:ddr3_1g_55 "$smokedir/long.trace" --serial \
        > "$smokedir/long.txt"
)
grep -q "streamed 100000000 cycles" "$smokedir/long.txt"

echo "== scheduler pipe smoke: sched | trace --check =="
# The FR-FCFS front end must emit command traces the streaming checker
# replays with zero violations, for the reordering policy and mapping
# scheme most likely to disturb timing (XOR hashing + a hot-page mix).
"$cli" sched preset:ddr3_2g_55 --workload=zipf --zipf=1.2 \
    --policy=frfcfs --map=xor --count=3000 \
    > "$smokedir/sched.trace" 2> "$smokedir/sched.stats"
grep -q "frfcfs" "$smokedir/sched.stats"
# trace --check exits 4 on any violation, so the check is its status.
set +e
"$cli" trace preset:ddr3_2g_55 "$smokedir/sched.trace" --check \
    > "$smokedir/sched.txt" 2>&1
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: scheduled trace --check exited $status, want 0" >&2
    cat "$smokedir/sched.txt" >&2
    exit 1
fi
# The matrix campaign must complete every cell violation-free (a
# protocol violation in any cell exits 4).
"$cli" sched preset:ddr3_2g_55 --matrix --count=400 --jobs="$jobs" \
    > "$smokedir/sched_matrix.txt"
test -s "$smokedir/sched_matrix.txt"

echo "== line-coverage gate =="
# gcov-instrumented build + full suite; per-directory table in the log,
# total gated against tools/coverage_baseline.txt (see tools/coverage.sh).
bash tools/coverage.sh build-coverage

echo "== lint exit-code contract =="
# A clean file is exit 0; the seeded-defect fixture must report its
# findings and exit 3 (parse defect present) — not crash, not abort.
./build-asan/tools/vdram_cli --lint examples/data/ddr3_1gb.dram
set +e
./build-asan/tools/vdram_cli --lint --diag-format=json \
    tests/data/defective.dram
status=$?
set -e
if [ "$status" -ne 3 ] && [ "$status" -ne 4 ]; then
    echo "lint on defective.dram exited $status, want 3 or 4" >&2
    exit 1
fi

echo "ci.sh: all checks passed"
