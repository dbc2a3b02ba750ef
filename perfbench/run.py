#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Part of the cache-conscious structure layout library (PLDI'99 repro).

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads: tree-replay, health-churn, morph-search (see perfbench.cpp).
The driver is configured and built into .bench_build/perfbench at the
repository root on first use (a Release build of perfbench/ plus the
library modules it links from src/); later runs only re-check that the
build is current. Build output goes to stderr, so the last stdout line
is the driver's JSON result. Exits nonzero, without a result, when the
library sources are missing or the build fails.

Stdlib only; no third-party imports.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        except (OSError, subprocess.CalledProcessError) as err:
            sys.exit(f"perfbench: build step failed: {err}")
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    exe = build()
    cmd = [exe, "--workload", args.workload,
           "--seed", str(args.seed % (1 << 64)),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
