#!/usr/bin/env python3
"""Run every workload of the vDRAM end-to-end benchmark as a set, or
compare two sets.

    python3 bench/e2e/suite.py --label base [--runs 5] [--seed 1]
                               [--vary-seed] [--seconds 15]
    python3 bench/e2e/suite.py --compare base change

A set runs each workload --runs times untraced (same --seed, or seeds
seed..seed+runs-1 with --vary-seed), then once traced, through run.py.
It prints the median and quartiles of every end-to-end metric, the
spread (q3 - q1) / median against a third of the metric's bound, whether
output_digest repeated, and the traced run's per-layer metrics; and it
writes results/<label>/<workload>.json next to this file.

--compare applies the bounds of BENCHMARK.json to the medians of two
sets and prints a verdict per workload and metric; it exits 1 when a
metric got worse than its bound allows, the digests differ, or a set
lacks a workload.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
RESULTS = PACKAGE / "results"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(PACKAGE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[0] == "output_digest":
            result["output_digest"] = fields[1]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def summarize(spec, workload, runs):
    print(f"\n== {workload}: {len(runs)} run(s)")
    print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound/3':>8}  unit")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, mid, q3 = quartiles(values)
        spread = (q3 - q1) / mid if mid else float("inf")
        limit = metric["bound"] / 3
        flag = "" if name == "setup_s" or spread <= limit else "  WIDE"
        print(f"  {name:<14} {mid:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.3f} {limit:>8.3f}  {metric['unit']}{flag}")
    correct = all(r["correct"] for r in runs)
    digests = {r.get("output_digest") for r in runs}
    print(f"  correct in every run: {correct}; "
          f"output_digest: {', '.join(sorted(digests))}")


def run_set(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    target = RESULTS / args.label
    target.mkdir(parents=True, exist_ok=True)
    for workload in names:
        runs = []
        for i in range(args.runs):
            seed = args.seed + i if args.vary_seed else args.seed
            runs.append(run_once(workload, seed, args.seconds, 0))
        traced = run_once(workload, args.seed, args.seconds, 1)
        record = {"workload": workload, "seed": args.seed,
                  "vary_seed": args.vary_seed, "runs": runs,
                  "traced": traced}
        (target / f"{workload}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        summarize(spec, workload, runs)
        print("  traced run (per-layer):")
        for name, metric in traced["metrics"].items():
            if metric["value"] != 0:
                print(f"    {name:<38} {metric['value']:>16.6g} "
                      f"{metric['unit']}")


def compare(args):
    spec = load_spec()
    base, change = (RESULTS / label for label in args.compare)
    regressed = False
    print(f"{'workload':<14} {'metric':<12} {args.compare[0]:>12} "
          f"{args.compare[1]:>12} {'worse by':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        paths = [base / f"{workload}.json", change / f"{workload}.json"]
        if not all(path.exists() for path in paths):
            regressed = True
            print(f"{workload:<14} MISSING from a set")
            continue
        a, b = (json.loads(path.read_text()) for path in paths)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma = statistics.median(r["metrics"][name]["value"]
                                   for r in a["runs"])
            mb = statistics.median(r["metrics"][name]["value"]
                                   for r in b["runs"])
            worse = (mb - ma) / ma if metric["better"] == "lower" \
                else (ma - mb) / ma
            ok = worse <= metric["bound"]
            regressed = regressed or not ok
            print(f"{a['workload']:<14} {name:<12} {ma:>12.6g} {mb:>12.6g} "
                  f"{worse:>+9.3f} {metric['bound']:>6.2f}  "
                  f"{'ok' if ok else 'REGRESSED'}")
        if a["vary_seed"] or b["vary_seed"] or a["seed"] != b["seed"]:
            continue  # digests only repeat for one seed
        digests = {r.get("output_digest") for r in a["runs"] + b["runs"]}
        same = len(digests) == 1
        regressed = regressed or not same
        print(f"{a['workload']:<14} output_digest "
              f"{'identical' if same else 'DIFFERS: ' + ', '.join(digests)}")
    sys.exit(1 if regressed else 0)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        compare(args)
    elif args.label:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        run_set(args)
    else:
        parser.error("give --label to run a set or --compare A B")


if __name__ == "__main__":
    main()
