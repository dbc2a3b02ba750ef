#!/usr/bin/env python3
"""Regression test for scripts/bench_compare.py.

Part of the cache-conscious structure layout library (PLDI'99 repro).

Two cases:
  * A fresh throughput of zero must be reported as a REGRESSED row with
    exit status 1, not crash the gate with a ZeroDivisionError.
  * Documents from hosts with different context.num_cpus must produce
    exactly one HOST MISMATCH line naming both values, and the exit
    status must stay what the metrics alone decide (0 here: the rows
    are identical).

Usage: bench_compare_test.py <bench_compare.py> <reference.json>
       <fresh_zero_throughput.json> <fresh_4cpu.json>
"""

import subprocess
import sys


def run(script, reference, fresh):
    proc = subprocess.run([sys.executable, script, reference, fresh],
                          capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc


def lines_starting(proc, prefix):
    return [line for line in proc.stdout.splitlines()
            if line.startswith(prefix)]


def main():
    script, reference, zero, four_cpu = sys.argv[1:5]
    failed = False

    proc = run(script, reference, zero)
    regressed = lines_starting(proc, "REGRESSED")
    if proc.returncode != 1 or not regressed or "Traceback" in proc.stderr:
        print("bench_compare_test: expected exit 1 with a REGRESSED row, "
              "got exit %d and %d REGRESSED row(s)"
              % (proc.returncode, len(regressed)))
        failed = True
    if lines_starting(proc, "HOST MISMATCH"):
        print("bench_compare_test: HOST MISMATCH printed although the "
              "fresh document has no num_cpus")
        failed = True

    proc = run(script, reference, four_cpu)
    mismatch = lines_starting(proc, "HOST MISMATCH")
    if proc.returncode != 0 or len(mismatch) != 1 \
            or "reference 1" not in mismatch[0] \
            or "fresh 4" not in mismatch[0]:
        print("bench_compare_test: expected exit 0 with one HOST MISMATCH "
              "line naming num_cpus 1 and 4, got exit %d and %r"
              % (proc.returncode, mismatch))
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
