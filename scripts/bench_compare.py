#!/usr/bin/env python3
"""Compare a fresh benchmark artifact against a committed reference.

Part of the cache-conscious structure layout library (PLDI'99 repro).

Reads two benchmark JSON files -- either google-benchmark documents (the
micro_* benches, committed as BENCH_*.json) or ccl-bench-v1 documents
(the figure benches via --out) -- matches results by name, and flags
metrics that moved past a tolerance band. A ccl-bench-v1 result is keyed
by its name plus the sweep fields that tell a figure's rows apart; a
document in which two results share a key exits 1 and names the key.
Exits nonzero when any regression exceeds the band, so CI can gate on
it. The ci.sh stage runs it blocking by default (ci.sh --advisory
demotes a trip to a warning for noisy shared runners); the band is a
tripwire, not a proof.

Stdlib only; no third-party imports.

Usage:
    scripts/bench_compare.py [--tolerance PCT] reference.json fresh.json

Direction is inferred per metric: *_per_second / speedup / gain /
items_per_second count as higher-is-better; time / nanos / cycles / _ns
/ _ms as lower-is-better. Other fields (checksums, miss counts, bytes)
are informational and not gated.

When both documents are google-benchmark runs whose context differs in
num_cpus, cpu_model or kernel, one HOST MISMATCH line per differing
field names both values: the deltas may then come from the host rather
than the code. A field only one document carries is not compared. The
exit status is unchanged.
"""

import argparse
import json
import sys

# google-benchmark context fields that identify the host a run came from.
HOST_FIELDS = ("num_cpus", "cpu_model", "kernel")

# Metric-name fragments that pick the comparison direction.
HIGHER_BETTER = ("per_second", "speedup", "gain", "throughput")
LOWER_BETTER = ("time", "nanos", "cycles", "_ns", "_ms", "norm_time")


def direction(metric):
    """+1 higher-is-better, -1 lower-is-better, 0 don't gate."""
    name = metric.lower()
    if any(frag in name for frag in HIGHER_BETTER):
        return 1
    if any(frag in name for frag in LOWER_BETTER):
        return -1
    return 0


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def host_field(doc, key):
    """context[key] of a google-benchmark document, or None."""
    context = doc.get("context")
    return context.get(key) if isinstance(context, dict) else None


def rows_google(doc):
    """google-benchmark: one row per benchmark, keyed by name."""
    rows = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        metrics = {}
        for key in ("real_time", "cpu_time", "items_per_second",
                    "bytes_per_second"):
            if key in bench:
                metrics[key] = float(bench[key])
        rows[bench["name"]] = metrics
    return rows


def ccl_row_key(result):
    """Composite key from the name plus the sweep fields the figure
    benches use to distinguish rows."""
    parts = [result.get("name", "?")]
    for key in ("section", "layout", "variant", "strategy", "searches",
                "k", "zipf_s", "l2_capacity_kb", "l2_assoc", "allocator",
                "hot_sets", "tree_keys"):
        if key in result:
            parts.append("%s=%s" % (key, result[key]))
    return " ".join(parts)


def rows_ccl(doc, path):
    """One row per result. A key that two results share would let the
    later one hide the earlier, so it rejects the document."""
    rows = {}
    for result in doc.get("results", []):
        key = ccl_row_key(result)
        if key in rows:
            sys.exit("%s: results repeat the key %r" % (path, key))
        rows[key] = {k: float(v) for k, v in result.items()
                     if isinstance(v, (int, float)) and direction(k) != 0}
    return {key: metrics for key, metrics in rows.items() if metrics}


def extract(doc, path):
    if doc.get("schema") == "ccl-bench-v1":
        return rows_ccl(doc, path)
    if "benchmarks" in doc:
        return rows_google(doc)
    sys.exit("%s: neither a ccl-bench-v1 nor a google-benchmark document"
             % path)


def main():
    parser = argparse.ArgumentParser(
        description="Diff a fresh benchmark JSON against a reference.")
    parser.add_argument("reference", help="committed reference JSON")
    parser.add_argument("fresh", help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=10.0,
                        help="allowed regression, percent (default 10)")
    parser.add_argument("--strict-new", action="store_true",
                        help="fail when the fresh run has benches the "
                        "reference lacks (default: report them as new "
                        "and pass, so adding a bench does not require "
                        "regenerating every reference in the same change)")
    args = parser.parse_args()

    ref_doc = load(args.reference)
    new_doc = load(args.fresh)
    ref = extract(ref_doc, args.reference)
    new = extract(new_doc, args.fresh)
    for key in HOST_FIELDS:
        ref_host, new_host = host_field(ref_doc, key), host_field(new_doc, key)
        if ref_host is not None and new_host is not None \
                and ref_host != new_host:
            print("HOST MISMATCH %s: reference %s, fresh %s -- deltas "
                  "may come from the host, not the code"
                  % (key, ref_host, new_host))

    compared = 0
    regressions = []
    improvements = 0
    missing = [name for name in ref if name not in new]
    new_only = [name for name in sorted(new) if name not in ref]
    for name, ref_metrics in sorted(ref.items()):
        new_metrics = new.get(name)
        if new_metrics is None:
            continue
        for metric, ref_value in sorted(ref_metrics.items()):
            if metric not in new_metrics or ref_value == 0:
                continue
            sign = direction(metric)
            if sign == 0:
                continue
            new_value = new_metrics[metric]
            # Positive delta_pct always means "worse". A higher-is-better
            # metric that fell to zero (or below) is infinitely worse.
            if sign > 0:
                delta_pct = (ref_value / new_value - 1.0) * 100.0 \
                    if new_value > 0 else float("inf")
            else:
                delta_pct = (new_value / ref_value - 1.0) * 100.0
            compared += 1
            label = "%s :: %s" % (name, metric)
            if delta_pct > args.tolerance:
                regressions.append((label, ref_value, new_value, delta_pct))
            elif delta_pct < -args.tolerance:
                improvements += 1
                print("IMPROVED  %-60s %12.4g -> %-12.4g (%+.1f%%)"
                      % (label, ref_value, new_value, -delta_pct))

    for label, ref_value, new_value, delta_pct in regressions:
        print("REGRESSED %-60s %12.4g -> %-12.4g (%.1f%% worse)"
              % (label, ref_value, new_value, delta_pct))
    for name in new_only:
        print("NEW       %-60s (no baseline)" % name)
    if missing:
        print("note: %d reference row(s) absent from the fresh run "
              "(first: %s)" % (len(missing), missing[0]))

    print("bench_compare: %d metric(s) compared, %d regression(s), "
          "%d improvement(s), %d new, tolerance %.1f%%"
          % (compared, len(regressions), improvements, len(new_only),
             args.tolerance))
    if args.strict_new and new_only:
        print("bench_compare: --strict-new: %d bench(es) missing from "
              "the reference; regenerate it" % len(new_only))
        return 1
    if compared == 0 and not new_only:
        print("bench_compare: nothing comparable -- check that both "
              "files come from the same benchmark")
        return 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
