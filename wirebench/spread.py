#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs each workload on several
seeds and reports, per end-to-end metric, the median and the quartile
spread (distance between the first and third quartile as a share of the
median, from statistics.quantiles(values, n=4)) next to the metric's
bound in BENCHMARK.json.

    python3 wirebench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads decide_cold,serve_hot]
                                [--seconds S] [--out FILE]

Run it from the root of a checkout. Seeds are first-seed, first-seed+1,
and so on; --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = completed.stdout.strip().splitlines()
    record = json.loads(lines[-2])["run_record"]
    return json.loads(lines[-1]), record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat --first-seed instead of counting up")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", help="also write every run's figures here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            result, record = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                sys.exit("%s seed %d: %d failed of %d" %
                         (workload, seed, result["failed"],
                          result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            runs.append({"seed": seed, "steal_share": record["steal_share"],
                         "windows": record.get("windows"),
                         "metrics": {n: v[-1] for n, v in values.items()}})
            print("%s seed %d: %s steal=%.3f" % (
                workload, seed,
                " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items()),
                record["steal_share"]), file=sys.stderr, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            summary[name] = {"median": median, "spread": spread,
                             "bound": bounds[name],
                             "within_third": spread < bounds[name] / 3}
            print("%-14s %-15s median %-12.6g spread %.4f (bound %.2f)%s" % (
                workload, name, median, spread, bounds[name],
                "" if spread < bounds[name] / 3 else "  <-- over a third"))
        report[workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
