#!/usr/bin/env python3
"""Regression test for scripts/bench_compare.py.

Part of the cache-conscious structure layout library (PLDI'99 repro).

Cases:
  * A fresh throughput of zero must be reported as a REGRESSED row with
    exit status 1, not crash the gate with a ZeroDivisionError.
  * Documents from hosts with different context.num_cpus must produce
    exactly one HOST MISMATCH line naming both values, and the exit
    status must stay what the metrics alone decide (0 here: the rows
    are identical).
  * Documents stamped with different cpu_model and kernel values must
    produce one HOST MISMATCH line for each field; a reference without
    those fields (as the committed BENCH_*.json are) produces none.
  * ccl-bench-v1 rows that differ only in tree_keys (fig10's) are
    compared separately, so a regression in the first one is REGRESSED.
  * A ccl-bench-v1 document that repeats a row key exits 1 and names
    the key.

Usage: bench_compare_test.py <bench_compare.py> <reference.json>
       <fresh_zero_throughput.json> <fresh_4cpu.json>
"""

import json
import os
import subprocess
import sys
import tempfile


def run(script, reference, fresh):
    proc = subprocess.run([sys.executable, script, reference, fresh],
                          capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc


def lines_starting(proc, prefix):
    return [line for line in proc.stdout.splitlines()
            if line.startswith(prefix)]


def host_stamped(reference, directory, name, cpu_model, kernel):
    """Writes a copy of the reference stamped with a CPU model and a
    kernel release; returns its path."""
    with open(reference, "r", encoding="utf-8") as f:
        doc = json.load(f)
    doc["context"].update(cpu_model=cpu_model, kernel=kernel)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def fig10_document(directory, name, rows):
    """Writes a ccl-bench-v1 document with one fig10 row per
    (tree_keys, ctree_cycles) pair; returns its path."""
    doc = {"schema": "ccl-bench-v1", "binary": "fig10_model_validation",
           "git": "x", "bench": "fig10", "full": False,
           "build_type": "release",
           "results": [{"name": "ctree_speedup", "tree_keys": keys,
                        "ctree_cycles": cycles} for keys, cycles in rows]}
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


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

    with tempfile.TemporaryDirectory() as tmp:
        host_a = host_stamped(reference, tmp, "a.json", "Xeon A", "6.1.0")
        host_b = host_stamped(reference, tmp, "b.json", "Xeon B", "6.18.0")

        proc = run(script, host_a, host_b)
        mismatch = lines_starting(proc, "HOST MISMATCH")
        expected = ["HOST MISMATCH cpu_model: reference Xeon A, fresh Xeon B",
                    "HOST MISMATCH kernel: reference 6.1.0, fresh 6.18.0"]
        if proc.returncode != 0 or len(mismatch) != 2 or not all(
                line.startswith(want)
                for line, want in zip(mismatch, expected)):
            print("bench_compare_test: expected exit 0 with HOST MISMATCH "
                  "lines for cpu_model and kernel, got exit %d and %r"
                  % (proc.returncode, mismatch))
            failed = True

        proc = run(script, reference, host_a)
        mismatch = lines_starting(proc, "HOST MISMATCH")
        if proc.returncode != 0 or mismatch:
            print("bench_compare_test: a reference without cpu_model and "
                  "kernel must compare without HOST MISMATCH, got exit %d "
                  "and %r" % (proc.returncode, mismatch))
            failed = True

        base = fig10_document(tmp, "f10.json",
                              [(262143, 1000), (1048575, 1000)])
        slower = fig10_document(tmp, "f10_slower.json",
                                [(262143, 3000), (1048575, 1000)])
        proc = run(script, base, slower)
        regressed = lines_starting(proc, "REGRESSED")
        if proc.returncode != 1 or len(regressed) != 1 \
                or "tree_keys=262143" not in regressed[0]:
            print("bench_compare_test: expected exit 1 with one REGRESSED "
                  "row for tree_keys=262143, got exit %d and %r"
                  % (proc.returncode, regressed))
            failed = True

        repeated = fig10_document(tmp, "f10_repeated.json",
                                  [(262143, 1000), (262143, 3000)])
        proc = run(script, base, repeated)
        if proc.returncode != 1 or "tree_keys=262143" not in proc.stderr \
                or "Traceback" in proc.stderr:
            print("bench_compare_test: expected exit 1 naming the repeated "
                  "key, got exit %d and %r"
                  % (proc.returncode, proc.stderr))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
