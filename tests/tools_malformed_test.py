#!/usr/bin/env python3
"""Malformed-input test for tools/cclstat.

Part of the cache-conscious structure layout library (PLDI'99 repro).

Runs cclstat on one small fixture per case (tests/fixtures/malformed).
A rejected input must exit with the tool's status, name "<path>: line N:"
on stderr and print nothing on stdout; an accepted one must exit 0 and
render the expected value. No case may print sanitizer output, since an
AddressSanitizer report also exits 1.

Usage: tools_malformed_test.py <cclstat> <fixture dir>
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

SANITIZER_TEXT = ("AddressSanitizer", "runtime error", "LeakSanitizer")


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True, check=False)


def main():
    cclstat, fixtures = sys.argv[1:3]
    scratch = tempfile.mkdtemp(prefix="ccl_malformed_")

    def fixture(name):
        return os.path.join(fixtures, name)

    # 100000 nested arrays: generated, not committed.
    deep = os.path.join(scratch, "deep_nesting.jsonl")
    with open(deep, "w") as out:
        out.write("[" * 100000 + "\n")
    chrome = os.path.join(scratch, "rejected.chrome.json")

    # (argv, exit status, what stderr says after "<path>: ")
    rejected = [
        ([cclstat, fixture("counter_negative.jsonl")], 1, "line 2:"),
        ([cclstat, "--chrome", chrome, fixture("counter_negative.jsonl")],
         1, "line 2:"),
        ([cclstat, fixture("counter_overflow.jsonl")], 1, "line 2:"),
        ([cclstat, fixture("lint_schema.jsonl")], 1,
         "line 1: unknown schema"),
        ([cclstat, fixture("no_schema.jsonl")], 1,
         'line 1: unknown schema ""'),
        ([cclstat, deep], 1, "line 1: nesting deeper than 32"),
    ]
    # (argv, regular expression stdout must match)
    rendered = [
        ([cclstat, fixture("counter_nested_key.jsonl")], r"^  n +1$"),
    ]

    failed = []
    for argv, status, reason in rejected:
        proc = run(argv)
        path = argv[-1]
        problems = []
        if proc.returncode != status:
            problems.append("exit %d, want %d" % (proc.returncode, status))
        if not proc.stderr.startswith("%s: %s" % (path, reason)):
            problems.append("stderr does not start with %r" %
                            ("%s: %s" % (path, reason)))
        if proc.stdout:
            problems.append("rendered output on stdout")
        if any(text in proc.stderr for text in SANITIZER_TEXT):
            problems.append("sanitizer report")
        if problems:
            failed.append((argv, problems, proc))
    if os.path.exists(chrome):
        failed.append(([cclstat, chrome],
                       ["a rejected input left an output file"], None))

    for argv, expected in rendered:
        proc = run(argv)
        problems = []
        if proc.returncode != 0:
            problems.append("exit %d, want 0" % proc.returncode)
        if not re.search(expected, proc.stdout, re.MULTILINE):
            problems.append("stdout does not match %r" % expected)
        if any(text in proc.stderr for text in SANITIZER_TEXT):
            problems.append("sanitizer report")
        if problems:
            failed.append((argv, problems, proc))

    for argv, problems, proc in failed:
        print("tools_malformed_test: %s: %s" % (" ".join(argv),
                                                "; ".join(problems)))
        if proc is not None:
            sys.stdout.write(proc.stdout[-2000:])
            sys.stdout.write(proc.stderr[-2000:])
    shutil.rmtree(scratch)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
