//===- bench/fig5_tree_microbenchmark.cpp - Paper Figure 5 -------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Figure 5: "Binary tree microbenchmark" — average search time vs number
// of repeated random searches for four tree organizations: randomly
// clustered binary tree, depth-first clustered binary tree, in-core
// B-tree (colored), and transparent C-tree. The paper finds C-trees and
// B-trees beat random layout by ~4-5x, depth-first by ~2.5-3x, and
// C-trees beat B-trees by ~1.5x.
//
// Average time is measured from a cold cache, so the curves fall as the
// colored hot region warms up — the amortized miss-rate behaviour of
// Section 5.1.
//
// Measurement structure (record once, replay once): every sweep point's
// search stream is seeded identically, so the 10-search stream is a
// prefix of the 100-search stream and so on up to the largest count.
// Each tree organization is therefore traversed natively exactly once —
// recording its largest-count access stream into a sim::TraceBuffer —
// and replayed once through a fresh, cold MemoryHierarchy on its own
// SweepRunner cell. The replay stops at every count's mark to read the
// cycle and miss counts: a cold replay of a prefix ends in exactly the
// state the long replay reaches at that mark. Each replay is one serial
// walk; the cells are the parallelism. Replay preserves recorded order,
// so the canonical first-touch address remap and all statistics are
// bit-identical to a serial re-executing sweep at any thread count.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "obs/Attribution.h"
#include "obs/Export.h"
#include "obs/FieldProfile.h"
#include "obs/MetricsExport.h"
#include "obs/PerfCounters.h"
#include "obs/Region.h"
#include "sim/AccessPolicy.h"
#include "support/Metrics.h"
#include "trees/CompactTree.h"
#include "support/Random.h"
#include "support/SweepRunner.h"
#include "support/Timer.h"
#include "trees/BTree.h"
#include "trees/BinaryTree.h"
#include "trees/CTree.h"

#include <charconv>
#include <cinttypes>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

using namespace ccl;
using namespace ccl::trees;

namespace {

struct SearchSeries {
  std::string Name;
  std::vector<double> CyclesPerSearch;
  std::vector<double> NanosPerSearch;
  /// Simulated miss totals for each count's cold-start replay, so the
  /// machine-readable summary can pair them with hardware counts.
  std::vector<uint64_t> SimL1Misses;
  std::vector<uint64_t> SimL2Misses;
  std::vector<uint64_t> SimTlbMisses;
  /// Hardware counters around each timed native window (--hw only;
  /// empty otherwise). Readings carry Available=false on denied hosts.
  std::vector<obs::PerfReading> Hw;
};

/// Untimed native searches run per organization before its timed
/// window, so the first timed cell is not charged for paging the tree
/// into the host's cold caches. Fixed-size (not proportional) so the
/// warm-up cost stays bounded at --full scale.
constexpr uint64_t NativeWarmupSearches = 2000;

/// One tree organization to sweep: a name plus the search entry point
/// instantiated for the recording and native policies.
struct SeriesDef {
  std::string Name;
  std::function<bool(uint32_t, sim::RecordAccess &)> RecordSearch;
  std::function<bool(uint32_t, sim::NativeAccess &)> NativeSearch;
};

/// Wraps one generic search lambda (templated over the access policy)
/// as a SeriesDef. The indirection costs one call per *search*, not per
/// simulated access.
template <typename SearchFn>
SeriesDef makeSeries(std::string Name, SearchFn Search) {
  return {std::move(Name),
          [Search](uint32_t Key, sim::RecordAccess &A) {
            return Search(Key, A);
          },
          [Search](uint32_t Key, sim::NativeAccess &A) {
            return Search(Key, A);
          }};
}

/// Runs the cold-start sweep for a set of tree organizations:
///  1. record each organization's largest-count access stream once
///     (native traversal, no simulation) with per-count prefix marks,
///  2. replay each organization's recording once through a fresh
///     hierarchy, one SweepRunner cell each, reading the cycle and miss
///     counts at every count mark,
///  3. measure native wall time serially (timing must not run under
///     parallel load), after an untimed warm-up pass per organization.
std::vector<SearchSeries>
measureAll(const std::vector<SeriesDef> &Defs, uint64_t NumKeys,
           const std::vector<uint64_t> &SearchCounts,
           const sim::HierarchyConfig &Config,
           obs::PerfCounters *Hw = nullptr) {
  size_t Counts = SearchCounts.size();
  std::vector<sim::TraceBuffer> Traces(Defs.size());
  std::vector<std::vector<size_t>> Prefixes(Defs.size());
  SweepRunner Runner;

  // Record once per organization (cells share the read-only trees).
  {
    metrics::ScopedSpan RecordSpan("fig5.record");
    Runner.run(Defs.size(), [&](size_t S) {
      sim::RecordAccess RA(Traces[S]);
      Xoshiro256 Rng(0xF16'5EEDULL);
      uint64_t MaxCount = SearchCounts.back();
      size_t NextCount = 0;
      for (uint64_t I = 0; I < MaxCount; ++I) {
        Defs[S].RecordSearch(
            BinarySearchTree::keyAt(Rng.nextBounded(NumKeys)), RA);
        while (NextCount < Counts && SearchCounts[NextCount] == I + 1) {
          Prefixes[S].push_back(Traces[S].records());
          ++NextCount;
        }
      }
      Traces[S].seal();
    });
  }

  // Replay: each organization's cell replays its recording once, in
  // bounded steps from one count mark to the next; the counts at a mark
  // are those of a cold replay of that prefix. Cells are independent
  // and the sealed recordings are read-only, so they fan across the
  // pool; every cell writes only its own result slots.
  std::vector<SearchSeries> Series(Defs.size());
  for (size_t S = 0; S < Defs.size(); ++S) {
    Series[S].Name = Defs[S].Name;
    Series[S].CyclesPerSearch.resize(Counts);
    Series[S].NanosPerSearch.resize(Counts);
    Series[S].SimL1Misses.resize(Counts);
    Series[S].SimL2Misses.resize(Counts);
    Series[S].SimTlbMisses.resize(Counts);
  }
  {
    metrics::ScopedSpan ReplaySpan("fig5.replay");
    Runner.run(Defs.size(), [&](size_t S) {
      sim::MemoryHierarchy M(Config);
      sim::TraceCursor Cursor(Traces[S].view());
      size_t Done = 0;
      for (size_t C = 0; C < Counts; ++C) {
        M.replay(Cursor, Prefixes[S][C] - Done);
        Done = Prefixes[S][C];
        Series[S].CyclesPerSearch[C] =
            double(M.now()) / double(SearchCounts[C]);
        Series[S].SimL1Misses[C] = M.stats().L1Misses;
        Series[S].SimL2Misses[C] = M.stats().L2Misses;
        Series[S].SimTlbMisses[C] = M.stats().TlbMisses;
      }
    });
  }

  // Native wall time over the same key sequence; accumulate the hit
  // count into a volatile sink so the searches cannot be optimized
  // away. The untimed warm-up (its own RNG, so the timed key sequence
  // still starts from the recorded seed) pages each organization's
  // working set into the host caches before its first timed cell.
  for (size_t S = 0; S < Defs.size(); ++S) {
    {
      metrics::ScopedSpan WarmupSpan("fig5.native_warmup");
      sim::NativeAccess WarmAccess;
      Xoshiro256 WarmRng(0xC01D'CAFEULL);
      uint64_t WarmHits = 0;
      for (uint64_t I = 0; I < NativeWarmupSearches; ++I)
        WarmHits += Defs[S].NativeSearch(
            BinarySearchTree::keyAt(WarmRng.nextBounded(NumKeys)),
            WarmAccess);
      static volatile uint64_t WarmSink;
      WarmSink = WarmHits;
      (void)WarmSink;
    }
    metrics::ScopedSpan WindowSpan("fig5.native_window");
    if (Hw)
      Series[S].Hw.resize(Counts);
    for (size_t C = 0; C < Counts; ++C) {
      sim::NativeAccess NA;
      Xoshiro256 Rng2(0xF16'5EEDULL);
      // The PerfScope brackets exactly the timed window, so hardware
      // counts and NanosPerSearch describe the same searches.
      std::unique_ptr<obs::PerfScope> Scope;
      if (Hw)
        Scope = std::make_unique<obs::PerfScope>(*Hw, Series[S].Hw[C]);
      Timer T;
      uint64_t Hits = 0;
      for (uint64_t I = 0; I < SearchCounts[C]; ++I)
        Hits += Defs[S].NativeSearch(
            BinarySearchTree::keyAt(Rng2.nextBounded(NumKeys)), NA);
      static volatile uint64_t Sink;
      Sink = Hits;
      (void)Sink;
      Series[S].NanosPerSearch[C] =
          double(T.elapsedNs()) / double(SearchCounts[C]);
      Scope.reset(); // Stop counters before anything else runs.
    }
  }
  return Series;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Full = bench::fullScale(Argc, Argv);
  uint64_t TraceSample = 1;
  std::string Sample = bench::flagValue(Argc, Argv, "--trace-sample");
  if (!Sample.empty()) {
    const char *End = Sample.data() + Sample.size();
    auto [Ptr, Ec] = std::from_chars(Sample.data(), End, TraceSample);
    if (Ec != std::errc() || Ptr != End) {
      std::fprintf(stderr, "fig5: --trace-sample needs a whole number, "
                           "got '%s'\n",
                   Sample.c_str());
      return 64;
    }
  }
  bench::printHeader(
      "Figure 5: binary tree microbenchmark",
      "Chilimbi/Hill/Larus PLDI'99, Fig. 5 (avg search time vs repeated "
      "searches; E5000 cache parameters)",
      Full);

  // Paper: 2,097,151 keys (40x the 1MB L2). Default: 2^20-1 (24x).
  const uint64_t NumKeys = Full ? (1ULL << 21) - 1 : (1ULL << 20) - 1;
  std::vector<uint64_t> SearchCounts = {10, 100, 1000, 10000, 100000};
  if (Full)
    SearchCounts.push_back(1000000);

  sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();
  CacheParams Params = CacheParams::fromHierarchy(Config);

  // --hw: wrap every timed native window in a perf_event group so the
  // summary pairs simulated misses with hardware counts. Constructed
  // once so a denied host reports one stable reason. Everything below
  // prints only under the flag — default stdout stays byte-identical.
  const bool HwFlag = bench::hasFlag(Argc, Argv, "--hw");
  std::unique_ptr<obs::PerfCounters> Hw;
  if (HwFlag)
    Hw = std::make_unique<obs::PerfCounters>();

  auto PrintHwSection = [&](const std::vector<SearchSeries> &All,
                            const std::vector<uint64_t> &Counts) {
    if (!HwFlag)
      return;
    if (!Hw->available()) {
      std::printf("\nhw: unavailable (%s)\n", Hw->reason().c_str());
      return;
    }
    std::printf("\nHardware counters per search (--hw; multiplexing-"
                "corrected):\n");
    TablePrinter T({"series", "searches", "cycles", "instr", "l1d miss",
                    "llc miss", "dtlb miss", "run%"});
    for (const SearchSeries &S : All) {
      for (size_t I = 0; I < Counts.size(); ++I) {
        if (I >= S.Hw.size() || !S.Hw[I].Available)
          continue;
        const obs::PerfReading &R = S.Hw[I];
        double N = double(Counts[I]);
        auto Per = [&](unsigned E) {
          return R.has(E)
                     ? TablePrinter::fmt(double(R.Scaled[E]) / N, 1)
                     : std::string("-");
        };
        T.addRow({S.Name, TablePrinter::fmtInt(Counts[I]),
                  Per(obs::PerfCycles), Per(obs::PerfInstructions),
                  Per(obs::PerfL1dMisses), Per(obs::PerfLlcMisses),
                  Per(obs::PerfDtlbMisses),
                  TablePrinter::fmt(100.0 * R.runningShare(), 0) + "%"});
      }
    }
    T.print();
  };

  std::printf("tree: %" PRIu64 " keys, %.1f MB of nodes (L2 = %.1f MB)\n\n",
              NumKeys, NumKeys * sizeof(BstNode) / 1048576.0,
              Config.L2.CapacityBytes / 1048576.0);

  auto RandomTree = BinarySearchTree::build(NumKeys, LayoutScheme::Random);
  auto DfsTree = BinarySearchTree::build(NumKeys, LayoutScheme::DepthFirst);
  std::vector<uint32_t> Keys(NumKeys);
  for (uint64_t I = 0; I < NumKeys; ++I)
    Keys[I] = BinarySearchTree::keyAt(I);
  BTree Btree = BTree::buildFromSorted(Keys, Params);
  Keys.clear();
  Keys.shrink_to_fit();
  CTree Ctree(Params);
  {
    auto Source = BinarySearchTree::build(NumKeys, LayoutScheme::Random);
    Ctree.adopt(Source.root());
  }

  std::vector<SeriesDef> Defs;
  Defs.push_back(makeSeries("random binary tree",
                            [&](uint32_t Key, auto &A) {
                              return RandomTree.search(Key, A) != nullptr;
                            }));
  Defs.push_back(makeSeries("depth-first binary tree",
                            [&](uint32_t Key, auto &A) {
                              return DfsTree.search(Key, A) != nullptr;
                            }));
  Defs.push_back(makeSeries("in-core B-tree", [&](uint32_t Key, auto &A) {
    return Btree.contains(Key, A);
  }));
  Defs.push_back(makeSeries("transparent C-tree",
                            [&](uint32_t Key, auto &A) {
                              return Ctree.search(Key, A) != nullptr;
                            }));
  std::vector<SearchSeries> Series =
      measureAll(Defs, NumKeys, SearchCounts, Config, Hw.get());

  TablePrinter Cycles({"searches", Series[0].Name, Series[1].Name,
                       Series[2].Name, Series[3].Name});
  for (size_t I = 0; I < SearchCounts.size(); ++I)
    Cycles.addRow({TablePrinter::fmtInt(SearchCounts[I]),
                   TablePrinter::fmt(Series[0].CyclesPerSearch[I], 1),
                   TablePrinter::fmt(Series[1].CyclesPerSearch[I], 1),
                   TablePrinter::fmt(Series[2].CyclesPerSearch[I], 1),
                   TablePrinter::fmt(Series[3].CyclesPerSearch[I], 1)});
  std::printf("Simulated cycles per search (cold start; E5000 model):\n");
  Cycles.print();

  TablePrinter Nanos({"searches", Series[0].Name, Series[1].Name,
                      Series[2].Name, Series[3].Name});
  for (size_t I = 0; I < SearchCounts.size(); ++I)
    Nanos.addRow({TablePrinter::fmtInt(SearchCounts[I]),
                  TablePrinter::fmt(Series[0].NanosPerSearch[I], 1),
                  TablePrinter::fmt(Series[1].NanosPerSearch[I], 1),
                  TablePrinter::fmt(Series[2].NanosPerSearch[I], 1),
                  TablePrinter::fmt(Series[3].NanosPerSearch[I], 1)});
  std::printf("\nNative nanoseconds per search (host hardware):\n");
  Nanos.print();
  PrintHwSection(Series, SearchCounts);

  size_t Last = SearchCounts.size() - 1;
  double Rand = Series[0].CyclesPerSearch[Last];
  double Dfs = Series[1].CyclesPerSearch[Last];
  double Bt = Series[2].CyclesPerSearch[Last];
  double Ct = Series[3].CyclesPerSearch[Last];
  std::printf("\nSteady-ish factors at %s searches (simulated):\n",
              TablePrinter::fmtInt(SearchCounts[Last]).c_str());
  std::printf("  C-tree vs random:      %s  (paper: ~4-5x)\n",
              bench::speedupStr(Rand, Ct).c_str());
  std::printf("  C-tree vs depth-first: %s  (paper: ~2.5-3x)\n",
              bench::speedupStr(Dfs, Ct).c_str());
  std::printf("  C-tree vs B-tree:      %s  (paper: ~1.5x)\n",
              bench::speedupStr(Bt, Ct).c_str());
  std::printf("  B-tree vs random:      %s  (paper: ~4-5x)\n",
              bench::speedupStr(Rand, Bt).c_str());

  //===------------------------------------------------------------------===//
  // Telemetry: --profile renders a per-structure attribution report;
  // --trace <path> additionally streams the events as a ccl-trace-v2
  // JSONL dump (render it later with tools/cclstat).
  //===------------------------------------------------------------------===//
  std::string TracePath = bench::flagValue(Argc, Argv, "--trace");
  std::string FieldsPath = bench::flagValue(Argc, Argv, "--fields");
  if (bench::hasFlag(Argc, Argv, "--profile") || !TracePath.empty() ||
      !FieldsPath.empty()) {
    const uint64_t ProfileSearches = Full ? 200000 : 50000;

    obs::RegionRegistry Registry;
    Registry.registerRange(RandomTree.nodes(), RandomTree.storageBytes(),
                           {"random binary tree", {}, {}});
    Registry.registerRange(DfsTree.nodes(), DfsTree.storageBytes(),
                           {"depth-first binary tree", {}, {}});
    if (const ColoredArena *A = Btree.arena())
      Registry.registerColoredArena(*A, "in-core B-tree");
    if (const ColoredArena *A = Ctree.arena())
      Registry.registerColoredArena(*A, "transparent C-tree");

    obs::AttributionConfig AConfig =
        obs::AttributionConfig::fromHierarchy(Config, Params.HotSets);
    obs::AttributionSink Sink(Registry, AConfig);
    obs::MultiObserver Fan;
    Fan.add(&Sink);

    // --fields <path>: attach a FieldProfileSink over the reflected
    // node types and export the per-field affinity counters as a
    // ccl-fields-v1 dump (render with cclstat; feed to ccllint
    // --fields for profile-guided split/reorder diagnostics).
    std::unique_ptr<obs::FieldProfileSink> Fields;
    if (!FieldsPath.empty()) {
      reflectTreeTypes();
      Fields = std::make_unique<obs::FieldProfileSink>();
      int BstId = reflect::TypeRegistry::global().idOf("BstNode");
      int BtId = reflect::TypeRegistry::global().idOf("BTreeNode");
      auto AddBst = [&](const BstNode *Root) {
        std::deque<const BstNode *> Work{Root};
        while (!Work.empty()) {
          const BstNode *N = Work.front();
          Work.pop_front();
          if (!N)
            continue;
          Fields->addObject(N, uint32_t(BstId));
          Work.push_back(N->Left);
          Work.push_back(N->Right);
        }
      };
      if (BstId >= 0) {
        AddBst(RandomTree.root());
        AddBst(DfsTree.root());
        AddBst(Ctree.root());
      }
      if (BtId >= 0) {
        std::deque<const BTreeNode *> Work{Btree.root()};
        while (!Work.empty()) {
          const BTreeNode *N = Work.front();
          Work.pop_front();
          if (!N)
            continue;
          Fields->addObject(N, uint32_t(BtId));
          if (!N->Leaf)
            for (unsigned I = 0; I <= N->Count; ++I)
              Work.push_back(N->Kids[I]);
        }
      }
      Fields->seal();
      Fan.add(Fields.get());
    }

    std::FILE *TraceFile = nullptr;
    std::unique_ptr<obs::TraceSink> Tracer;
    if (!TracePath.empty()) {
      TraceFile = std::fopen(TracePath.c_str(), "w");
      if (!TraceFile) {
        std::fprintf(stderr, "fig5: cannot open %s for writing\n",
                     TracePath.c_str());
        return 1;
      }
      Tracer = std::make_unique<obs::TraceSink>(TraceFile, AConfig,
                                                &Registry, TraceSample);
      Fan.add(Tracer.get());
    }

    // One shared hierarchy for all four structures, so the report shows
    // them side by side (caches stay warm across structures, like an
    // application touching several data structures in turn).
    sim::MemoryHierarchy M(Config);
    M.attachObserver(&Fan);
    sim::SimAccess A(M);
    auto RunSearches = [&](auto &&Search) {
      Xoshiro256 Rng(0xF16'5EEDULL);
      for (uint64_t I = 0; I < ProfileSearches; ++I)
        Search(BinarySearchTree::keyAt(Rng.nextBounded(NumKeys)), A);
    };
    RunSearches([&](uint32_t Key, auto &Acc) {
      return RandomTree.search(Key, Acc) != nullptr;
    });
    RunSearches([&](uint32_t Key, auto &Acc) {
      return DfsTree.search(Key, Acc) != nullptr;
    });
    RunSearches([&](uint32_t Key, auto &Acc) {
      return Btree.contains(Key, Acc);
    });
    RunSearches([&](uint32_t Key, auto &Acc) {
      return Ctree.search(Key, Acc) != nullptr;
    });
    Sink.finalize();

    std::printf("\n--- telemetry: %" PRIu64
                " searches per structure, one shared hierarchy ---\n\n",
                ProfileSearches);
    Sink.printReport();
    if (!M.stats().isConsistent())
      std::fprintf(stderr, "fig5: WARNING: inconsistent simulator stats\n");
    if (TraceFile) {
      std::fclose(TraceFile);
      std::printf("\nwrote %" PRIu64 " trace lines to %s "
                  "(render: cclstat %s)\n",
                  Tracer->linesWritten(), TracePath.c_str(),
                  TracePath.c_str());
    }
    if (Fields) {
      std::FILE *FieldsFile = std::fopen(FieldsPath.c_str(), "w");
      if (!FieldsFile) {
        std::fprintf(stderr, "fig5: cannot open %s for writing\n",
                     FieldsPath.c_str());
        return 1;
      }
      obs::writeFieldsJsonl(*Fields, FieldsFile);
      std::fclose(FieldsFile);
      std::printf("wrote field-affinity profile to %s "
                  "(render: cclstat %s; lint: ccllint --fields %s)\n",
                  FieldsPath.c_str(), FieldsPath.c_str(),
                  FieldsPath.c_str());
    }
    M.attachObserver(nullptr);
  }

  //===------------------------------------------------------------------===//
  // 32-bit-offset ("paper regime") section: 12-byte nodes, k = 5.
  //===------------------------------------------------------------------===//
  std::printf("\n--- 32-bit compact-node mode (the paper's SPARC-32 "
              "pointer-width regime; 16B nodes, k=%zu) ---\n",
              size_t(Params.BlockBytes / sizeof(CompactBstNode)));

  CompactTree CRandom = CompactTree::build(NumKeys, Params,
                                           LayoutScheme::Random,
                                           /*Color=*/false);
  CompactTree CDfs = CompactTree::build(NumKeys, Params,
                                        LayoutScheme::DepthFirst,
                                        /*Color=*/false);
  std::vector<uint32_t> K2(NumKeys);
  for (uint64_t I = 0; I < NumKeys; ++I)
    K2[I] = BinarySearchTree::keyAt(I);
  // Two occupancies for the insert-ready slack B-trees carry: 0.69 is
  // the steady state of random insertion, 0.50 the B-tree minimum.
  CompactBTree CBtree =
      CompactBTree::buildFromSorted(K2, Params, /*FillFactor=*/0.69);
  CompactBTree CBtreeHalf =
      CompactBTree::buildFromSorted(K2, Params, /*FillFactor=*/0.50);
  K2.clear();
  K2.shrink_to_fit();
  CompactTree CCtree = CompactTree::build(NumKeys, Params,
                                          LayoutScheme::Subtree,
                                          /*Color=*/true);

  std::vector<SeriesDef> CDefs;
  CDefs.push_back(makeSeries("random binary tree",
                             [&](uint32_t Key, auto &A) {
                               return CRandom.contains(Key, A);
                             }));
  CDefs.push_back(makeSeries("depth-first binary tree",
                             [&](uint32_t Key, auto &A) {
                               return CDfs.contains(Key, A);
                             }));
  CDefs.push_back(makeSeries("B-tree (fill .69)",
                             [&](uint32_t Key, auto &A) {
                               return CBtree.contains(Key, A);
                             }));
  CDefs.push_back(makeSeries("B-tree (fill .50)",
                             [&](uint32_t Key, auto &A) {
                               return CBtreeHalf.contains(Key, A);
                             }));
  CDefs.push_back(makeSeries("transparent C-tree",
                             [&](uint32_t Key, auto &A) {
                               return CCtree.contains(Key, A);
                             }));
  std::vector<SearchSeries> CSeries =
      measureAll(CDefs, NumKeys, SearchCounts, Config, Hw.get());

  TablePrinter CCycles({"searches", CSeries[0].Name, CSeries[1].Name,
                        CSeries[2].Name, CSeries[3].Name,
                        CSeries[4].Name});
  for (size_t I = 0; I < SearchCounts.size(); ++I)
    CCycles.addRow({TablePrinter::fmtInt(SearchCounts[I]),
                    TablePrinter::fmt(CSeries[0].CyclesPerSearch[I], 1),
                    TablePrinter::fmt(CSeries[1].CyclesPerSearch[I], 1),
                    TablePrinter::fmt(CSeries[2].CyclesPerSearch[I], 1),
                    TablePrinter::fmt(CSeries[3].CyclesPerSearch[I], 1),
                    TablePrinter::fmt(CSeries[4].CyclesPerSearch[I], 1)});
  std::printf("Simulated cycles per search (cold start):\n");
  CCycles.print();

  double CRand = CSeries[0].CyclesPerSearch[Last];
  double CDfsC = CSeries[1].CyclesPerSearch[Last];
  double CBt = CSeries[2].CyclesPerSearch[Last];
  double CBtHalf = CSeries[3].CyclesPerSearch[Last];
  double CCt = CSeries[4].CyclesPerSearch[Last];
  std::printf("\nCompact-mode factors at %s searches (simulated):\n",
              TablePrinter::fmtInt(SearchCounts[Last]).c_str());
  std::printf("  C-tree vs random:           %s  (paper: ~4-5x)\n",
              bench::speedupStr(CRand, CCt).c_str());
  std::printf("  C-tree vs depth-first:      %s  (paper: ~2.5-3x)\n",
              bench::speedupStr(CDfsC, CCt).c_str());
  std::printf("  C-tree vs B-tree(.69):      %s  (paper: ~1.5x)\n",
              bench::speedupStr(CBt, CCt).c_str());
  std::printf("  C-tree vs B-tree(.50):      %s  (paper: ~1.5x)\n",
              bench::speedupStr(CBtHalf, CCt).c_str());
  if (HwFlag && Hw->available())
    PrintHwSection(CSeries, SearchCounts);

  // Machine-readable summary (--out <path> / CCL_BENCH_OUT).
  bench::BenchJson Json("fig5", Full);
  Json.beginResult("(meta)");
  Json.str("section", "meta");
  Json.integer("native_warmup_searches", NativeWarmupSearches);
  if (HwFlag) {
    Json.beginResult("(hw)");
    Json.str("section", "meta");
    Json.str("metric", "hw");
    Json.str("hw_available", Hw->available() ? "yes" : "no");
    if (!Hw->available())
      Json.str("hw_reason", Hw->reason());
  }
  auto AddSeries = [&](const char *Section,
                       const std::vector<SearchSeries> &All) {
    for (const SearchSeries &S : All) {
      for (size_t I = 0; I < SearchCounts.size(); ++I) {
        Json.beginResult(S.Name);
        Json.str("section", Section);
        Json.integer("searches", SearchCounts[I]);
        Json.num("cycles_per_search", S.CyclesPerSearch[I]);
        Json.num("nanos_per_search", S.NanosPerSearch[I]);
        Json.integer("sim_l1_misses", S.SimL1Misses[I]);
        Json.integer("sim_l2_misses", S.SimL2Misses[I]);
        Json.integer("sim_tlb_misses", S.SimTlbMisses[I]);
        // Paired hardware counts (--hw with perf available): same
        // document, so cclstat can build the divergence table.
        if (I < S.Hw.size() && S.Hw[I].Available) {
          const obs::PerfReading &R = S.Hw[I];
          auto HwField = [&](const char *Key, unsigned E) {
            if (R.has(E))
              Json.integer(Key, uint64_t(R.Scaled[E]));
          };
          HwField("hw_cycles", obs::PerfCycles);
          HwField("hw_instructions", obs::PerfInstructions);
          HwField("hw_l1d_misses", obs::PerfL1dMisses);
          HwField("hw_llc_misses", obs::PerfLlcMisses);
          HwField("hw_dtlb_misses", obs::PerfDtlbMisses);
          Json.integer("hw_time_enabled_ns", R.TimeEnabledNs);
          Json.integer("hw_time_running_ns", R.TimeRunningNs);
        }
      }
    }
  };
  AddSeries("64bit", Series);
  AddSeries("compact", CSeries);
  Json.writeIfRequested(bench::benchOutPath(Argc, Argv));
  obs::dumpProcessMetrics(bench::metricsOutPath(Argc, Argv));
  return 0;
}
