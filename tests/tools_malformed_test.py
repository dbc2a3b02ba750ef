#!/usr/bin/env python3
"""Malformed-input and round-trip test for scripts/cclstat.py.

Part of the cache-conscious structure layout library (PLDI'99 repro).

Runs cclstat.py on one small fixture per case (tests/fixtures/malformed)
and on dumps generated into a scratch directory. A rejected input must
exit 1, start stderr with "<path>: line N: <reason>", print nothing on
stdout, write no --chrome file and show no Traceback; an accepted one
must exit 0 and render the expected values. metrics.jsonl and
report.jsonl must render exactly as their committed .txt and
.chrome.json files. Last, a fig7_olden --metrics dump must render with a
positive ccmalloc.alloc_fast row and one Chrome event per span line. No
run may print sanitizer output, since an AddressSanitizer report also
exits 1.

Usage: tools_malformed_test.py <cclstat.py> <fixture dir> <fig7_olden>
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

SANITIZER_TEXT = ("AddressSanitizer", "runtime error", "LeakSanitizer")
META = '{"kind":"meta","schema":"ccl-metrics-v1","binary":"fixture","git":"x"}'
U64 = '"v": expected an unsigned 64-bit integer'
U32 = '"tid": expected an unsigned 32-bit integer'
PAIRS = '"b": expected [bucket, count] pairs'
SURROGATE = "lone surrogate escape in a string"


def run(argv, stdin=b"", cwd=None):
    return subprocess.run(argv, input=stdin, capture_output=True,
                          check=False, cwd=cwd)


def json_escape(raw):
    """What the C++ writers' jsonEscape prints for raw (json_test)."""
    named = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
    return "".join(named.get(c) or ("\\u%04x" % ord(c) if c < " " else c)
                   for c in raw)


def main():
    script, fixtures, fig7 = map(os.path.abspath, sys.argv[1:4])
    cclstat = [sys.executable, script]
    scratch = tempfile.mkdtemp(prefix="ccl_malformed_")
    chrome = os.path.join(scratch, "rejected.chrome.json")

    def fixture(name):
        return os.path.join(fixtures, name)

    def write(name, data):
        path = os.path.join(scratch, name)
        with open(path, "wb") as out:
            out.write(data if isinstance(data, bytes) else data.encode())
        return path

    def dump(name, *lines):
        """A generated dump: the meta line, then lines."""
        return write(name, "\n".join((META,) + lines) + "\n")

    # (path, what stderr says after "<path>: ")
    rejected = [
        (fixture("counter_negative.jsonl"), "line 2: " + U64),
        (fixture("counter_overflow.jsonl"), "line 2: " + U64),
        (fixture("lint_schema.jsonl"), 'line 1: unknown schema "ccl-lint-v1"'),
        (fixture("no_schema.jsonl"), 'line 1: unknown schema ""'),
        # 100000 nested arrays, and one level past the cap.
        (write("deep_nesting.jsonl", "[" * 100000 + "\n"),
         "line 1: nesting deeper than 32"),
        (dump("deep_33.jsonl", "[" * 33 + "]" * 33),
         "line 2: nesting deeper than 32"),
        (write("array.jsonl", "[1,2]\n"), "line 1: not a JSON object"),
        (write("blank.jsonl", "\n  \r\n"), "no records"),
        (write("bad_utf8.jsonl", META.encode() +
               b'\n{"kind":"c","name":"\xff","v":1}\n'),
         "line 2: invalid UTF-8"),
        # The first bad line is named, after blank ones and a cut one.
        (write("cut.jsonl", META + '\n{"kind":"c","name":"a","v":1}\n\n  \r\n'
               '{"kind":"c","name":"b","v":2}\n{"kind":"c","name":"cut'),
         "line 6: "),
    ]
    syntax = ['{"kind":"a","now":12', '{"kind":"region","name":"cut mid-str',
              '{"kind":"a"} {"kind":"a"}', '{"kind":"a"}x', "not json",
              '{"a":1,}', '{"a" 1}', '{"a":01}', '{"a":1.}', r'{"a":"\q"}',
              r'{"a":"\u12"}', '{"a":"tab\there"}', '{"a":tru}']
    for i, line in enumerate(syntax):
        rejected.append((dump("syntax_%d.jsonl" % i, line), "line 2: "))
    for name, line, reason in [
            ("nan", '{"kind":"c","name":"n","v":NaN}',
             "NaN is not a JSON number"),
            ("infinity", '{"kind":"c","name":"n","v":Infinity}',
             "Infinity is not a JSON number"),
            ("nan_skipped_key", '{"kind":"c","name":"n","v":1,"x":-Infinity}',
             "-Infinity is not a JSON number"),
            ("minus_zero", '{"kind":"c","name":"n","v":-0}', U64),
            ("duplicate", '{"kind":"c","name":"n","v":1,"v":2}',
             'duplicate key "v"'),
            ("low_surrogate", r'{"kind":"c","name":"\udc00","v":1}', SURROGATE),
            ("high_surrogate", r'{"kind":"c","name":"\ud83d","v":1}',
             SURROGATE),
            ("high_surrogate_pair", r'{"a":"\ud83d\u0041"}', SURROGATE),
            ("surrogate_in_array", r'{"kind":"x","a":["\udc00"]}', SURROGATE),
            ("v_negative", '{"kind":"c","name":"n","v":-5}', U64),
            ("v_fraction", '{"kind":"c","name":"n","v":1.5}', U64),
            ("v_exponent", '{"kind":"c","name":"n","v":1e3}', U64),
            ("v_overflow", '{"kind":"c","name":"n","v":18446744073709551616}',
             U64),
            ("v_string", '{"kind":"c","name":"n","v":"7"}', U64),
            ("v_bool", '{"kind":"c","name":"n","v":true}', U64),
            ("tid_overflow", '{"kind":"s","name":"s","tid":4294967296}', U32),
            ("tid_negative", '{"kind":"s","name":"s","tid":-1}', U32),
            ("flag_two", '{"kind":"meta","overflowed":2}',
             '"overflowed": expected 0 or 1'),
            ("no_kind", '{"name":"n","v":1}', 'missing "kind"'),
            ("kind_array", '{"kind":["c"]}', '"kind": expected a string'),
            ("no_v", '{"kind":"c","name":"n"}', 'missing "v"'),
            ("bucket_past_64", '{"kind":"h","name":"h","b":[[65,1]]}', PAIRS),
            ("bucket_triple", '{"kind":"h","name":"h","b":[[1,2,3]]}', PAIRS),
            ("bucket_negative", '{"kind":"h","name":"h","b":[[1,-2]]}',
             PAIRS)]:
        rejected.append((dump(name + ".jsonl", line), "line 2: " + reason))

    # (arguments, stdin, regular expressions stdout must match)
    raw = "q\"b\\s/t\tn\nr\r" + "".join(map(chr, range(1, 32))) + "\x7fé end"
    concatenated = [
        '{"kind":"c","name":"x.total","v":10}',
        '{"kind":"h","name":"x.h","count":1,"sum":4,"b":[[3,1]]}',
        '{"kind":"c","name":"x.total","v":32}',
        '{"kind":"h","name":"x.h","count":2,"sum":6,"b":[[2,2]]}',
        '{"kind":"future-kind","name":"n"}']
    with open(dump("a.jsonl", *concatenated[:2]), "rb") as a, \
            open(dump("b.jsonl", *concatenated[2:]), "rb") as b:
        cat = a.read() + b.read()
    rendered = [
        ([fixture("counter_nested_key.jsonl")], b"", [r"^  n +1$"]),
        ([dump("quoted_key.jsonl", r'{"kind":"c","name":"\"v\":9","v":2}')],
         b"", [r'^  "v":9 +2$']),
        ([dump("v_max.jsonl",
               '{"kind":"c","name":"n","v":18446744073709551615}')],
         b"", [r"^  n +18446744073709551615$"]),
        ([dump("tid_max.jsonl", '{"kind":"s","name":"s","tid":4294967295}')],
         b"", [r"^  s +tid 4294967295  start"]),
        ([dump("flag_one.jsonl", '{"kind":"meta","overflowed":1}')],
         b"", [r"^WARNING: metric registrations overflowed"]),
        ([dump("skipped.jsonl", '{"kind":"future-kind","name":"n"}',
               '{"kind":"meta","simd":"avx2","future":{"x":[1,2]},'
               '"spans_dropped":3}')],
         b"", [r": 2 metrics records from fixture \(x\)$",
               r"^WARNING: 3 span\(s\) dropped"]),
        ([write("python_spacing.jsonl",
                '{"kind": "meta", "schema": "ccl-metrics-v1", "binary": "py", '
                '"git": "abc", "overflowed": true}\n{"kind": "h", "name": "h", '
                '"count": 1, "sum": 4, "b": [[3, 1]]}\n')],
         b"", [r"^producer: py \(abc\)$", r"^WARNING: metric registrations",
               r"^  h: count 1, sum 4, mean 4\.0$",
               r"^    \[ +4, +7\] +1 #{40}$"]),
        ([write("escaped.jsonl", '{"kind":"meta","schema":"ccl-metrics-v1",'
                '"binary":"%s"}\n{"kind":"c","name":"%s","v":1}\n' %
                (json_escape(raw), json_escape(raw)))],
         b"", [re.escape("producer: %s ()" % raw), re.escape("  %s " % raw)]),
        (["--chrome", "-", dump(
            "decoded.jsonl", r'{"kind":"s","n":-1.5e+3,"l":[true,false,null],'
            r'"o":{},"name":"a\"\\\/\b\f\n\r\t\u0001é😀","t0":1,"dur":2}')],
         b"", [re.escape(r'"name":"a\"\\/\u0008\u000c\n\r\t\u0001é😀"')]),
        ([dump("deep_32.jsonl",
               '{"kind":"x","a":' + "[" * 31 + "]" * 31 + "}")],
         b"", [r": 1 metrics records"]),
        # cat a.jsonl b.jsonl | cclstat.py -: repeated names sum.
        (["-"], cat,
         [r"^-: 6 metrics records", r"^  x\.total +42$",
          r"^  x\.h: count 3, sum 10, mean 3\.3$",
          r"^    \[ +2, +3\] +2 #{40}$", r"^    \[ +4, +7\] +1 #{20}$"]),
        # Slab acquires are an ordinary row of the counters table.
        ([dump("slab.jsonl",
               '{"kind":"c","name":"ccmalloc.slab_acquires","v":7}')],
         b"", [r"^counters:\n  ccmalloc\.slab_acquires +7$"]),
        # The lines metrics_test's JsonlWritesExactLines expects.
        ([dump("writer.jsonl",
               '{"kind":"c","name":"test.rt_counter","v":123456789012}',
               '{"kind":"h","name":"test.rt_hist","count":2,"sum":907,'
               '"b":[[3,1],[10,1]]}',
               '{"kind":"s","name":"test.rt_span","t0":1000,"dur":52000,'
               '"tid":0}')],
         b"", [r"^  test\.rt_counter +123456789012$",
               r"^  test\.rt_hist: count 2, sum 907, mean 453\.5$",
               r"^    \[ +4, +7\] +1 #{40}$",
               r"^    \[ +512, +1023\] +1 #{40}$",
               r"^  test\.rt_span +tid 0  start +0\.001 ms  dur +0\.052 ms$"]),
    ]

    failed = []
    for path, reason in rejected:
        proc = run(cclstat + ["--chrome", chrome, path])
        stderr = proc.stderr.decode(errors="replace")
        problems = []
        if proc.returncode != 1:
            problems.append("exit %d, want 1" % proc.returncode)
        if not stderr.startswith("%s: %s" % (path, reason)):
            problems.append("stderr does not start with %r" %
                            ("%s: %s" % (path, reason)))
        if proc.stdout:
            problems.append("rendered output on stdout")
        if "Traceback" in stderr:
            problems.append("Traceback")
        if os.path.exists(chrome):
            problems.append("a rejected input left a --chrome file")
            os.remove(chrome)
        if problems:
            failed.append((path, problems, proc))
    proc = run(cclstat + [os.path.join(scratch, "absent.jsonl")])
    if (proc.returncode != 1 or proc.stdout or
            not proc.stderr.startswith(b"cclstat: [Errno 2]")):
        failed.append(("absent.jsonl", ["a missing file is not refused"],
                       proc))

    for argv, stdin, expected in rendered:
        proc = run(cclstat + argv, stdin)
        stdout = proc.stdout.decode()
        problems = ["stdout does not match %r" % regex for regex in expected
                    if not re.search(regex, stdout, re.MULTILINE)]
        if proc.returncode != 0 or proc.stderr:
            problems.append("exit %d, want 0" % proc.returncode)
        if problems:
            failed.append((" ".join(argv), problems, proc))

    # Whole reports and Chrome files, byte for byte. Regenerate the
    # committed ones only for a deliberate change to the report.
    for name in ("metrics", "report"):
        out = os.path.join(scratch, name + ".chrome.json")
        proc = run(cclstat + ["--chrome", out, name + ".jsonl"], cwd=fixtures)
        with open(fixture(name + ".txt"), "rb") as text, \
                open(fixture(name + ".chrome.json"), "rb") as events:
            if proc.stdout != text.read():
                failed.append((name, ["report differs from %s.txt" % name],
                               proc))
            if not os.path.exists(out) or open(out, "rb").read() != \
                    events.read():
                failed.append((name, ["--chrome file differs from "
                                      "%s.chrome.json" % name], proc))

    # Writer to reader: fig7_olden's --metrics dump, rendered.
    metrics = os.path.join(scratch, "fig7.jsonl")
    out = os.path.join(scratch, "fig7.chrome.json")
    proc = run([fig7, "--metrics", metrics], cwd=scratch)
    if proc.returncode != 0 or any(text.encode() in proc.stderr
                                   for text in SANITIZER_TEXT):
        failed.append((fig7, ["fig7_olden --metrics failed"], proc))
    else:
        proc = run(cclstat + ["--chrome", out, metrics])
        fast = re.search(rb"^  ccmalloc\.alloc_fast +(\d+)$", proc.stdout,
                         re.MULTILINE)
        with open(metrics) as lines:
            spans = sum(json.loads(line)["kind"] == "s" for line in lines)
        if proc.returncode != 0 or not fast or int(fast.group(1)) == 0:
            failed.append((metrics, ["no positive ccmalloc.alloc_fast row"],
                           proc))
        elif len(json.load(open(out))["traceEvents"]) != spans or not spans:
            failed.append((out, ["want one event per span line (%d)" % spans],
                           proc))

    for what, problems, proc in failed:
        print("tools_malformed_test: %s: %s" % (what, "; ".join(problems)))
        sys.stdout.write(proc.stdout[-2000:].decode(errors="replace"))
        sys.stdout.write(proc.stderr[-2000:].decode(errors="replace"))
    shutil.rmtree(scratch)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
