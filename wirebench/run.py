#!/usr/bin/env python3
"""Builds wirebench from this checkout's sources and runs one workload.

    python3 wirebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
the benchmark (CMake, Release) into .bench_build/wirebench; later calls
rebuild only what changed. Build output goes to stderr, so the last line
of stdout is the result JSON the benchmark prints. Exits non-zero, with no
result, when the engine sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wirebench")
BINARY = os.path.join(BUILD, "wirebench")
# Compiler and benchmark temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
# A run finishes well inside this; a hung one is killed and reported.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("wirebench: no engine sources at %s/src" % ROOT)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=ENV, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "wirebench"],
                   stdout=sys.stderr, env=ENV, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("wirebench: build failed: %s" % error)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD, "work")]
    try:
        return subprocess.run(command, cwd=ROOT, env=ENV,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("wirebench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
