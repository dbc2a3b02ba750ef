#!/usr/bin/env python3
"""Regression test for scripts/bench_compare.py.

Part of the cache-conscious structure layout library (PLDI'99 repro).

A fresh throughput of zero must be reported as a REGRESSED row with
exit status 1, not crash the gate with a ZeroDivisionError.

Usage: bench_compare_test.py <bench_compare.py> <reference.json> <fresh.json>
"""

import subprocess
import sys


def main():
    script, reference, fresh = sys.argv[1:4]
    proc = subprocess.run([sys.executable, script, reference, fresh],
                          capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    regressed = [line for line in proc.stdout.splitlines()
                 if line.startswith("REGRESSED")]
    if proc.returncode != 1 or not regressed or "Traceback" in proc.stderr:
        print("bench_compare_test: expected exit 1 with a REGRESSED row, "
              "got exit %d and %d REGRESSED row(s)"
              % (proc.returncode, len(regressed)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
