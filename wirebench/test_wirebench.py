#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 wirebench/test_wirebench.py [-v]

Run from the root of a checkout (the first test builds the benchmark).
Each workload runs briefly a few times:

  * the checker rejects a reply whose expected verdict was flipped;
  * every end-to-end and per-layer metric BENCHMARK.json names is
    printed, with its unit;
  * the STATS-derived counts of the traced run repeat exactly across two
    runs of one seed;
  * one seed always yields the same request stream (hash), another seed
    a different one;
  * without the engine sources next to it, run.py fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BINARY = os.path.join(ROOT, ".bench_build", "wirebench", "wirebench")
COUNT_UNITS = ("1/op", "ratio")


def run(workload, seed, trace, seconds=1.0, flags=()):
    """Runs one workload through run.py, or straight through the built
    binary when `flags` beyond run.py's (such as --flip-expected) are
    given; returns (result, run_record)."""
    if flags:
        command = [BINARY, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--work-dir",
                   os.path.join(ROOT, ".bench_build", "wirebench", "work")]
        command += list(flags)
    else:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, check=True, timeout=300)
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["run_record"]


class WirebenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds once; later runs call the binary or rebuild nothing.
        run("serve_hot", 1, 0, seconds=0.5)

    def test_checker_rejects_a_flipped_verdict(self):
        result, record = run("serve_hot", 3, 0, seconds=0.5,
                             flags=("--flip-expected", "0"))
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreaterEqual(record["wrong"], 1)
        result, _ = run("serve_hot", 3, 0, seconds=0.5)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_traced_checker_rejects_a_flipped_verdict(self):
        result, _ = run("decide_cold", 3, 1, seconds=0.2,
                        flags=("--flip-expected", "0"))
        self.assertFalse(result["correct"])
        # The flipped reply is wrong at the untraced wire level and at
        # each of the four traced levels.
        self.assertEqual(result["failed"], 5)

    def test_end_to_end_metrics_named_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, record = run(workload, 2, 0)
                self.assertTrue(result["correct"], record)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                self.assertEqual(sorted(metrics),
                                 sorted(m["name"] for m in BENCH["end_to_end"]))
                for m in BENCH["end_to_end"]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_traced_counts_repeat_and_metrics_are_named(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, first_record = run(workload, 5, 1)
                second, second_record = run(workload, 5, 1)
                self.assertTrue(first["correct"], first_record)
                self.assertTrue(second["correct"], second_record)
                names = [m["name"] for m in BENCH["per_layer"]]
                self.assertEqual(sorted(first["metrics"]), sorted(names))
                for m in BENCH["per_layer"]:
                    self.assertEqual(first["metrics"][m["name"]]["unit"],
                                     m["unit"])
                    if m["unit"] in COUNT_UNITS:
                        self.assertEqual(first["metrics"][m["name"]]["value"],
                                         second["metrics"][m["name"]]["value"],
                                         m["name"])
                self.assertEqual(first_record["stream_hash"],
                                 second_record["stream_hash"])

    def test_seed_fixes_the_stream(self):
        _, a = run("catalog_write", 7, 0, seconds=0.3)
        _, b = run("catalog_write", 7, 0, seconds=0.3)
        _, c = run("catalog_write", 8, 0, seconds=0.3)
        self.assertEqual(a["stream_hash"], b["stream_hash"])
        self.assertNotEqual(a["stream_hash"], c["stream_hash"])

    def test_fails_without_engine_sources(self):
        isolated = os.path.join(ROOT, ".bench_build", "wirebench",
                                "isolated-test")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(isolated, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            BENCH["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=isolated, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(completed.returncode, 0)
        self.assertEqual(completed.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
