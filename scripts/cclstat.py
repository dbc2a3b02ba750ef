#!/usr/bin/env python3
"""Render a ccl-metrics-v1 dump, a bench binary's --metrics output.

Part of the cache-conscious structure layout library (PLDI'99 repro).

Prints a text report and, with --chrome, the spans as Chrome trace-event
JSON ('-' = stdout). Concatenated dumps accumulate. The reader contract
is DESIGN.md's ("One JSON layer"): a rejected input exits 1 with
"<path>: line N: <reason>" on stderr, prints nothing and writes no file.
Output is laid out as printf lays it out, widths counting UTF-8 bytes,
and totals wrap at 2^64 as the registry's counters do. Stdlib only.

Usage: scripts/cclstat.py [--chrome <path>] <ccl-metrics-v1 dump | ->
"""

import argparse
import collections
import json
import os
import re
import sys

SCHEMA = "ccl-metrics-v1"
U32, U64 = 2**32 - 1, 2**64 - 1
BUCKETS = 65  # bucket B holds the values whose bit width is B
# A string literal (to its closing quote, or to the end of a cut line),
# or a bracket: nesting is counted on these before json.loads recurses.
TOKENS = re.compile(r'"(?:[^"\\]|\\.)*"?|[][{}]')
DIGITS = re.compile("[0-9]{1,20}")
EXPECTED = {str: "a string", bool: "0 or 1",
            U32: "an unsigned 32-bit integer",
            U64: "an unsigned 64-bit integer"}
# What the C++ writers' jsonEscape escapes, and how.
ESCAPED = re.compile(r'["\\\x00-\x1f]')
ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
# A JSON number kept as its token, so each field decides what it takes.
Number = collections.namedtuple("Number", "token")


class Reject(Exception):
    """Why the input is rejected."""


def members(pairs):
    """A JSON object that names each key once."""
    for key, count in collections.Counter(key for key, _ in pairs).items():
        if count > 1:
            raise Reject('duplicate key "%s"' % key)
    return dict(pairs)


def not_a_number(name):
    raise Reject("%s is not a JSON number" % name)


def parse(raw):
    """One line of a dump as a JSON object."""
    try:
        text = raw.rstrip(b"\n").decode("utf-8")
    except UnicodeDecodeError:
        raise Reject("invalid UTF-8") from None
    depth = 0
    for token in TOKENS.finditer(text):
        depth += {"[": 1, "{": 1, "]": -1, "}": -1}.get(token.group(), 0)
        if depth > 32:
            raise Reject("nesting deeper than 32")
    try:
        value = json.loads(text, object_pairs_hook=members,
                           parse_constant=not_a_number,
                           parse_int=Number, parse_float=Number)
        # A lone surrogate escape leaves a string UTF-8 cannot encode.
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as err:
        raise Reject("%s at column %d" %
                     (err.msg.removesuffix(" at"), err.colno)) from None
    except UnicodeEncodeError:
        raise Reject("lone surrogate escape in a string") from None
    if not isinstance(value, dict):
        raise Reject("not a JSON object")
    return value


def unsigned(value, limit):
    """value as an int in [0, limit], read from plain digits; else None."""
    digits = isinstance(value, Number) and DIGITS.fullmatch(value.token)
    return int(value.token) if digits and int(value.token) <= limit else None


def field(record, key, kind, default=None):
    """record[key] read as kind: str, bool, U32 or U64. An absent key
    gives default, and rejects the line when default is None."""
    if key not in record:
        if default is None:
            raise Reject('missing "%s"' % key)
        return default
    value = record[key]
    if kind is str:
        read = value if isinstance(value, str) else None
    elif kind is bool and isinstance(value, bool):
        read = value
    elif kind is bool:
        read = {0: False, 1: True}.get(unsigned(value, 1))
    else:
        read = unsigned(value, kind)
    if read is None:
        raise Reject('"%s": expected %s' % (key, EXPECTED[kind]))
    return read


def bucket_pairs(record):
    """A histogram's sparse "b" array of [bucket, count] pairs."""
    pairs = record.get("b", [])
    if isinstance(pairs, list) and all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        pairs = [(unsigned(bucket, BUCKETS - 1), unsigned(n, U64))
                 for bucket, n in pairs]
        if all(None not in pair for pair in pairs):
            return pairs
    raise Reject('"b": expected [bucket, count] pairs')


class Dump:
    """The lines read so far. The last meta line names the producer."""

    def __init__(self):
        self.binary = self.git = ""
        self.overflowed = False
        self.spans_dropped = self.lines = self.records = 0
        self.counters = collections.Counter()
        self.histograms = {}  # name -> [count, sum, per-bucket counts]
        self.spans = []       # (name, t0, dur, tid)

    def add(self, record):
        """Adds one line's record. The first line must carry the schema,
        and a record of an unknown kind is skipped."""
        self.lines += 1
        if self.lines == 1 and field(record, "schema", str, "") != SCHEMA:
            raise Reject('unknown schema "%s"' % record.get("schema", ""))
        kind = field(record, "kind", str)
        if kind == "meta":
            field(record, "schema", str, "")
            self.binary = field(record, "binary", str, self.binary)
            self.git = field(record, "git", str, self.git)
            self.overflowed |= field(record, "overflowed", bool, False)
            self.spans_dropped += field(record, "spans_dropped", U64, 0)
        elif kind == "c":
            name = field(record, "name", str)
            self.counters[name] += field(record, "v", U64)
        elif kind == "h":
            hist = self.histograms.setdefault(field(record, "name", str),
                                              [0, 0, [0] * BUCKETS])
            hist[0] += field(record, "count", U64, 0)
            hist[1] += field(record, "sum", U64, 0)
            for bucket, n in bucket_pairs(record):
                hist[2][bucket] += n
        elif kind == "s":
            self.spans.append((field(record, "name", str),
                               field(record, "t0", U64, 0),
                               field(record, "dur", U64, 0),
                               field(record, "tid", U32, 0)))
        else:
            return
        self.records += 1


def read(path):
    """The dump at path ('-' = stdin)."""
    dump, number = Dump(), 0
    try:
        with sys.stdin.buffer if path == "-" else open(path, "rb") as stream:
            for number, raw in enumerate(stream, 1):
                if raw.strip(b" \t\r\n"):
                    dump.add(parse(raw))
    except Reject as err:
        raise Reject("%s: line %d: %s" % (path, number, err)) from None
    if dump.lines == 0:
        raise Reject(path + ": no records")
    return dump


def report(path, dump):
    stamp = (dump.binary.encode(), dump.git.encode())
    dropped = dump.spans_dropped & U64
    out = [b"%s: %d metrics records" % (os.fsencode(path), dump.records),
           b" from %s (%s)" % stamp if dump.binary else b"", b"\n\n",
           b"producer: %s (%s)\n" % stamp if dump.binary or dump.git else b"",
           b"WARNING: metric registrations overflowed; the overflow slot "
           b"absorbed late registrations\n" if dump.overflowed else b"",
           b"WARNING: %d span(s) dropped (fixed span buffer filled)\n" %
           dropped if dropped else b"", b"\ncounters:\n"]
    width = max([8] + [len(name.encode()) for name in dump.counters])
    for name, value in dump.counters.items():
        out.append(b"  %-*s %12d\n" % (width, name.encode(), value & U64))
    out.append(b"" if dump.counters else b"  (none)\n")
    out.append(b"\nhistograms (power-of-two buckets):\n")
    for name, (count, total, buckets) in dump.histograms.items():
        count, total = count & U64, total & U64
        buckets = [n & U64 for n in buckets]
        top = max(buckets)
        out.append(b"  %s: count %d, sum %d, mean %.1f\n" % (
            name.encode(), count, total, float(total) / count if count else 0))
        for bucket, n in enumerate(buckets):
            if n:
                out.append(b"    [%20d, %20d] %10d %s\n" % (
                    (1 << bucket) >> 1, (1 << bucket) - 1, n,
                    b"#" * (1 + ((39 * n) & U64) // top)))
    out.append(b"" if dump.histograms else b"  (none)\n")
    out.append(b"\nspans:\n" if dump.spans else b"")
    for name, t0, dur, tid in dump.spans:
        out.append(b"  %-24s tid %d  start %10.3f ms  dur %10.3f ms\n" %
                   (name.encode(), tid, t0 / 1e6, dur / 1e6))
    return b"".join(out)


def chrome(dump):
    """The spans as Chrome trace events, one row per recording thread."""
    events = []
    for name, t0, dur, tid in dump.spans:
        name = ESCAPED.sub(lambda m: ESCAPES.get(m[0], "\\u%04x" % ord(m[0])),
                           name)
        events.append(b'{"name":"%s","cat":"phase","ph":"X","ts":%.3f,'
                      b'"dur":%.3f,"pid":0,"tid":%d}' %
                      (name.encode(), t0 / 1e3, dur / 1e3, tid))
    return (b'{"displayTimeUnit":"ms","traceEvents":[' + b",".join(events) +
            b"]}\n")


def main():
    parser = argparse.ArgumentParser(prog="cclstat.py", allow_abbrev=False)
    parser.add_argument("--chrome", metavar="PATH",
                        help="also write the spans as Chrome trace JSON")
    parser.add_argument("dump", help="a ccl-metrics-v1 dump, or - for stdin")
    args = parser.parse_args()
    dump = read(args.dump)
    sys.stdout.buffer.write(report(args.dump, dump))
    if args.chrome == "-":
        sys.stdout.buffer.write(chrome(dump))
    elif args.chrome:
        with open(args.chrome, "wb") as out:
            out.write(chrome(dump))


if __name__ == "__main__":
    try:
        main()
    except Reject as err:
        sys.exit(str(err))
    except OSError as err:
        sys.exit("cclstat: %s" % err)
