#!/usr/bin/env python3
"""Run one workload of the vDRAM end-to-end benchmark.

    python3 bench/e2e/run.py --workload mc_campaign --seed 1 --seconds 10 --trace 0

Builds the benchmark package (bench/e2e/CMakeLists.txt: the vdram library
and CLI from this source tree plus bench_e2e) into .bench_build on first
use, runs bench_e2e, echoes its metric lines, and prints as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list; a layer the workload does not exercise
reports 0. Exits non-zero, without a result, when the benchmark cannot
be built or run.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
# Lines bench_e2e prints besides metrics.
BOOKKEEPING = {"output_digest", "attempted", "failed", "verdict"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"vdram sources not found under {ROOT}")
    steps = [["cmake", "--build", str(BUILD), "-j", "4",
              "--target", "bench_e2e"]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD / "bench_e2e"


def stop_group(pgid):
    """Kill what is left of the benchmark's process group (fleet workers
    included) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bench(binary, args):
    work = Path(".bench_build") / "work" / args.workload
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--workdir={work}"]
    if args.trace:
        command += ["--traced",
                    f"--trace-out=.bench_build/traces/{args.workload}.json"]
    (ROOT / ".bench_build" / "traces").mkdir(parents=True, exist_ok=True)
    # Relative work paths keep the AF_UNIX socket paths short.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    stop_group(proc.pid)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    binary = build()
    status, out = run_bench(binary, args)
    if status not in (0, 1):
        fail(f"bench_e2e {args.workload} exited with status {status}")

    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    printed = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) != 3:
            continue
        print(line)
        name, value, unit = fields
        if name not in declared and name not in BOOKKEEPING:
            fail(f"bench_e2e printed undeclared metric '{name}'")
        if name in declared and unit != declared[name]["unit"]:
            fail(f"metric '{name}' has unit '{unit}', "
                 f"BENCHMARK.json says '{declared[name]['unit']}'")
        printed[name] = value

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in printed:
            value = float(printed[name])
        elif args.trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            fail(f"end-to-end metric '{name}' missing")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    attempted = int(printed.get("attempted", 0))
    if attempted < 1:
        fail("no work attempted")
    result = {
        "correct": status == 0 and printed.get("verdict") == "PASS",
        "attempted": attempted,
        "failed": int(printed.get("failed", 0)),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
