#!/usr/bin/env bash
#===- scripts/ci.sh - Build + test across sanitizer presets ---------------===#
#
# Part of the cache-conscious structure layout library (PLDI'99 repro).
#
# Builds the release and asan presets and runs the full test suite on
# both, then builds the tsan preset and runs the thread-sensitive tests
# (the SweepRunner/simulator suite) under ThreadSanitizer, runs
# clang-tidy, diffs fig7, fig10, the ccmorph ablations, fig5's
# simulated tables and --profile attribution report, and fig6's
# simulated columns across sweep thread counts, reads fig7's and fig10's
# bench documents through bench_compare.py and fig7's metrics dump
# through cclstat.py, and runs each perfbench workload briefly to check
# that replay still equals live simulation. Any failure aborts the
# script.
#
# Usage: scripts/ci.sh [--advisory] [jobs]
#
# With CCL_BENCH_ARTIFACTS=1 the micro-bench tiers (sim / allocator /
# morph) are diffed against their committed references and a regression
# beyond the threshold (CCL_BENCH_TOLERANCE, default 10%) FAILS the
# script. Pass --advisory (or CCL_BENCH_ADVISORY=1) to demote the gate
# back to a warning, e.g. on shared runners with noisy timings.
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_ADVISORY="${CCL_BENCH_ADVISORY:-0}"
if [[ "${1:-}" == "--advisory" ]]; then
  BENCH_ADVISORY=1
  shift
fi

JOBS="${1:-$(nproc)}"

run_preset() {
  local preset="$1"
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] test ==="
  ctest --preset "$preset" -j "$JOBS"
}

run_preset release
run_preset asan

# ThreadSanitizer pass: the test preset filters to the suites that
# exercise the SweepRunner thread pool and the simulator it drives, and
# to those that run heaps on fresh threads (each thread keeps its own
# stash of dead heaps' slabs).
# Pin the sweep width so the pool actually spawns workers even on
# single-core CI machines.
CCL_SWEEP_THREADS=4 run_preset tsan

# The clang-tidy pass is advisory unless CCL_LINT_STRICT=1 because the
# default toolchain has no clang-tidy (lint.sh warns and exits 0).
echo "=== [lint] clang-tidy (scripts/lint.sh) ==="
scripts/lint.sh

# Thread-count determinism: a figure's stdout must not depend on how
# many sweep workers ran its cells. fig7 (the ccmalloc figure), fig10
# and the three ablations that sweep ccmorph over many K, p and profile
# cells are diffed whole. fig7's health ccmorph cells do not follow
# host placement either: ccmorph lays each pass out into its own
# retired frames (determinism_test runs them with a perturbed host heap
# and on a fresh thread). fig5 is diffed without its host-timed table
# and with ASLR off on both sides: its binary-tree node arrays are only
# 4 KiB aligned, so two of its simulated columns follow where the
# process maps them (ROADMAP item 1). It runs with --profile, so the
# one observed access path and the per-structure report it feeds are
# diffed on every run too. fig6 is diffed whole, with ASLR on, through
# its --out document with each result's host-timed native_ms removed:
# that document carries every simulated column of both sections. The
# BDD runs touch only their own heap's 1 MiB slabs, and the ray caster
# only its octree region and the one region its scene arrays are
# copied into. fig7's counter and histogram totals
# are diffed too, but for sweep.* (a serial sweep counts serial_runs):
# heaps built and destroyed on sweep workers must publish every count.
DET_DIR="$(mktemp -d)"
det_diff() {
  if ! diff "$DET_DIR/$1.1" "$DET_DIR/$1.4"; then
    echo "FAIL: $1 depends on the sweep thread count"
    exit 1
  fi
}
for fig in fig7_olden fig10_model_validation ablation_subtree_size \
    ablation_coloring ablation_profile_guided; do
  echo "=== [determinism] $fig at CCL_SWEEP_THREADS=1 vs 4 ==="
  CCL_SWEEP_THREADS=1 "build-release/bench/$fig" > "$DET_DIR/$fig.1"
  CCL_SWEEP_THREADS=4 "build-release/bench/$fig" > "$DET_DIR/$fig.4"
  det_diff "$fig"
done
fig=fig7_olden
echo "=== [determinism] $fig metrics totals at CCL_SWEEP_THREADS=1 vs 4 ==="
for threads in 1 4; do
  CCL_SWEEP_THREADS=$threads "build-release/bench/$fig" \
    --metrics "$DET_DIR/$fig.jsonl" > /dev/null
  grep -E '"kind":"[ch]"' "$DET_DIR/$fig.jsonl" |
    grep -v '"name":"sweep\.' > "$DET_DIR/$fig.metrics.$threads"
done
det_diff "$fig.metrics"
fig=fig5_tree_microbenchmark
echo "=== [determinism] $fig tables and profile at CCL_SWEEP_THREADS=1 vs 4 ==="
for threads in 1 4; do
  CCL_SWEEP_THREADS=$threads setarch "$(uname -m)" -R \
    "build-release/bench/$fig" --profile |
    sed '/^Native nanoseconds per search/,/^$/d' > "$DET_DIR/$fig.$threads"
done
det_diff "$fig"
fig=fig6_macrobenchmarks
echo "=== [determinism] $fig simulated columns at CCL_SWEEP_THREADS=1 vs 4 ==="
for threads in 1 4; do
  CCL_SWEEP_THREADS=$threads "build-release/bench/$fig" \
    --out "$DET_DIR/$fig.json" > /dev/null
  python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
print(json.dumps([{k: v for k, v in r.items() if k != "native_ms"}
                  for r in doc["results"]], indent=1))' \
    "$DET_DIR/$fig.json" > "$DET_DIR/$fig.$threads"
done
det_diff "$fig"
rm -rf "$DET_DIR"

# Artifact round trip: each ccl-* format has one reader, and every run
# (not only CCL_BENCH_ARTIFACTS=1) checks it against its writer. fig7's
# and fig10's ccl-bench-v1 documents go through bench_compare.py against
# themselves, which also rejects a document whose rows repeat a key;
# fig7's ccl-metrics-v1 dump goes through cclstat.py, whose Chrome trace
# must load as JSON.
echo "=== [artifacts] fig7/fig10 --out through bench_compare.py, fig7 --metrics through cclstat.py ==="
ART_DIR="$(mktemp -d)"
build-release/bench/fig7_olden --out "$ART_DIR/fig7.json" \
  --metrics "$ART_DIR/fig7.jsonl" > /dev/null
build-release/bench/fig10_model_validation --out "$ART_DIR/fig10.json" \
  > /dev/null
for doc in fig7 fig10; do
  python3 scripts/bench_compare.py "$ART_DIR/$doc.json" "$ART_DIR/$doc.json"
done
python3 scripts/cclstat.py --chrome "$ART_DIR/fig7.chrome.json" \
  "$ART_DIR/fig7.jsonl" > /dev/null
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
  "$ART_DIR/fig7.chrome.json"
rm -rf "$ART_DIR"

# End-to-end correctness: every perfbench op checks that trace replay
# equals live simulation bit for bit and that native checksums match.
# One short run per workload; its timings are not checked here.
for workload in tree-replay health-churn morph-search; do
  echo "=== [perfbench] $workload correctness ==="
  result="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 1 | tail -n 1)"
  if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result"
  then
    echo "FAIL: perfbench $workload: $result"
    exit 1
  fi
done

# Machine-readable benchmark artifacts (schema ccl-bench-v1 /
# google-benchmark JSON), opt-in because the figure benches add minutes:
#   CCL_BENCH_ARTIFACTS=1 scripts/ci.sh
# Artifacts land in artifacts/ (override with CCL_BENCH_DIR). Built from
# the "bench" preset (Release with NDEBUG, asserts off): reference perf
# numbers must never come from an asserts-on build — BenchCommon warns
# and stamps build_type/ccl_build_type so debug artifacts are visible.
if [[ "${CCL_BENCH_ARTIFACTS:-0}" == "1" ]]; then
  echo "=== [bench] configure ==="
  cmake --preset bench
  echo "=== [bench] build ==="
  cmake --build --preset bench -j "$JOBS"
  ART="${CCL_BENCH_DIR:-artifacts}"
  mkdir -p "$ART"
  echo "=== bench artifacts -> $ART ==="
  build-bench/bench/micro_sim_throughput \
    --out "$ART/BENCH_sim_throughput.json"
  build-bench/bench/micro_allocator_throughput \
    --out "$ART/BENCH_allocator_throughput.json"
  build-bench/bench/micro_morph_throughput \
    --out "$ART/BENCH_morph_throughput.json"
  build-bench/bench/table1_simulation_params \
    --out "$ART/BENCH_table1.json" > /dev/null
  build-bench/bench/table2_benchmark_characteristics \
    --out "$ART/BENCH_table2.json" > /dev/null
  build-bench/bench/table3_technique_summary \
    --out "$ART/BENCH_table3.json" > /dev/null
  # Figure benches also dump their runtime-metrics registries
  # (ccl-metrics-v1) next to the bench JSON.
  build-bench/bench/fig5_tree_microbenchmark \
    --out "$ART/BENCH_fig5.json" --metrics "$ART/METRICS_fig5.jsonl"
  build-bench/bench/fig6_macrobenchmarks --out "$ART/BENCH_fig6.json" \
    --metrics "$ART/METRICS_fig6.jsonl"
  build-bench/bench/fig7_olden --out "$ART/BENCH_fig7.json" \
    --metrics "$ART/METRICS_fig7.jsonl"
  build-bench/bench/fig10_model_validation --out "$ART/BENCH_fig10.json"
  build-bench/bench/ablation_coloring --out "$ART/BENCH_ablation_coloring.json"
  build-bench/bench/ablation_cache_params \
    --out "$ART/BENCH_ablation_cache_params.json"
  build-bench/bench/ablation_ccmalloc_strategies \
    --out "$ART/BENCH_ablation_ccmalloc_strategies.json"
  build-bench/bench/ablation_profile_guided \
    --out "$ART/BENCH_ablation_profile_guided.json"
  build-bench/bench/ablation_subtree_size \
    --out "$ART/BENCH_ablation_subtree_size.json"

  # Smoke the metrics reader over an artifact it consumes.
  echo "=== cclstat.py smoke over metrics artifacts ==="
  python3 scripts/cclstat.py "$ART/METRICS_fig5.jsonl" > /dev/null

  # Regression gate: diff the fresh micro-bench numbers against the
  # committed references. Blocking by default — a regression beyond
  # the tolerance fails CI. --advisory / CCL_BENCH_ADVISORY=1 demotes
  # a trip to a warning for noisy shared runners.
  TOLERANCE="${CCL_BENCH_TOLERANCE:-10}"
  if [[ "$BENCH_ADVISORY" == "1" ]]; then
    echo "=== bench regression check (advisory, tolerance ${TOLERANCE}%) ==="
  else
    echo "=== bench regression check (blocking, tolerance ${TOLERANCE}%) ==="
  fi
  BENCH_GATE_FAILED=0
  for micro in sim allocator morph; do
    if ! python3 scripts/bench_compare.py \
        --tolerance "$TOLERANCE" \
        "BENCH_${micro}_throughput.json" \
        "$ART/BENCH_${micro}_throughput.json"; then
      if [[ "$BENCH_ADVISORY" == "1" ]]; then
        echo "ADVISORY: BENCH_${micro}_throughput regressed past band"
      else
        echo "FAIL: BENCH_${micro}_throughput regressed past band"
        BENCH_GATE_FAILED=1
      fi
    fi
  done
  if [[ "$BENCH_GATE_FAILED" == "1" ]]; then
    echo "bench regression gate tripped; rerun with --advisory to demote"
    exit 1
  fi
fi

echo "=== CI OK ==="
