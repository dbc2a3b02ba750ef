//===- bench/fig7_olden.cpp - Paper Figure 7 ---------------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Figure 7: "Performance of cache-conscious data placement" — normalized
// execution time of the four Olden benchmarks (treeadd, health, mst,
// perimeter) under: Base, hardware prefetch (HP), software prefetch
// (SP), ccmalloc first-fit (FA) / closest (CA) / new-block (NA), and
// ccmorph clustering (Cl) / clustering+coloring (Cl+Col), using the RSIM
// Table 1 memory system. Each bar is broken into busy and memory-stall
// components.
//
// Paper shape: ccmorph beats HW and SW prefetching everywhere (28-138%
// over base); ccmalloc-new-block beats prefetching on everything except
// treeadd; treeadd/perimeter see only modest gains because creation
// order already matches traversal order.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "obs/MetricsExport.h"
#include "olden/Health.h"
#include "olden/Mst.h"
#include "olden/Perimeter.h"
#include "olden/TreeAdd.h"
#include "support/Metrics.h"
#include "support/SweepRunner.h"

#include <functional>
#include <vector>

using namespace ccl;
using namespace ccl::olden;

namespace {

struct BenchDef {
  std::string Name;
  std::function<BenchResult(Variant, const sim::HierarchyConfig *)> Run;
};

const char *shortName(Variant V) {
  switch (V) {
  case Variant::Base:
    return "B";
  case Variant::HwPrefetch:
    return "HP";
  case Variant::SwPrefetch:
    return "SP";
  case Variant::CcMallocFirstFit:
    return "FA";
  case Variant::CcMallocClosest:
    return "CA";
  case Variant::CcMallocNewBlock:
    return "NA";
  case Variant::CcMallocNull:
    return "Null";
  case Variant::CcMorphCluster:
    return "Cl";
  case Variant::CcMorphColor:
    return "Cl+Col";
  }
  return "?";
}

} // namespace

int main(int Argc, char **Argv) {
  bool Full = bench::fullScale(Argc, Argv);
  bench::printHeader("Figure 7: Olden benchmarks under cache-conscious "
                     "placement",
                     "Chilimbi/Hill/Larus PLDI'99, Fig. 7 + Table 1 "
                     "(RSIM memory system)",
                     Full);

  TreeAddConfig TreeAdd;
  TreeAdd.Levels = Full ? 18 : 16; // Table 2: 256K nodes.
  TreeAdd.Iterations = 8;

  HealthConfig Health;
  Health.MaxLevel = 3; // Table 2: max level 3.
  Health.Steps = Full ? 1500 : 500;
  Health.MorphInterval = Full ? 300 : 100;

  MstConfig Mst;
  Mst.NumVertices = 512; // Table 2: 512 nodes.
  Mst.Degree = 32;       // Adjacency structure exceeds the 256KB L2.

  PerimeterConfig Perimeter;
  Perimeter.Levels = Full ? 12 : 10; // Table 2: 4K x 4K image.
  Perimeter.Iterations = 3;

  std::vector<BenchDef> Benchmarks = {
      {"treeadd", [&](Variant V, const sim::HierarchyConfig *S) {
         return runTreeAdd(TreeAdd, V, S);
       }},
      {"health", [&](Variant V, const sim::HierarchyConfig *S) {
         return runHealth(Health, V, S);
       }},
      {"mst", [&](Variant V, const sim::HierarchyConfig *S) {
         return runMst(Mst, V, S);
       }},
      {"perimeter", [&](Variant V, const sim::HierarchyConfig *S) {
         return runPerimeter(Perimeter, V, S);
       }},
  };

  sim::HierarchyConfig Config = sim::HierarchyConfig::rsimTable1();
  bench::BenchJson Json("fig7", Full);

  // Every (benchmark, variant) cell is an independent simulation: run the
  // whole grid on SweepRunner workers, then present serially from the
  // preallocated slots so the tables come out byte-identical to a serial
  // sweep regardless of thread count.
  const size_t NumVariants = std::size(AllVariants);
  std::vector<BenchResult> Grid(Benchmarks.size() * NumVariants);
  SweepRunner Runner;
  {
    metrics::ScopedSpan SimSpan("fig7.sim");
    Runner.run(Grid.size(), [&](size_t Cell) {
      const BenchDef &Bench = Benchmarks[Cell / NumVariants];
      Grid[Cell] = Bench.Run(AllVariants[Cell % NumVariants], &Config);
    });
  }

  for (size_t B = 0; B < Benchmarks.size(); ++B) {
    const BenchDef &Bench = Benchmarks[B];
    std::printf("--- %s ---\n", Bench.Name.c_str());
    TablePrinter Table({"config", "norm time", "busy%", "L1 stall%",
                        "L2 stall%", "TLB%", "other%", "L2 misses",
                        "checksum ok"});
    BenchResult Base;
    double BestPrefetch = 0;
    double MorphBest = 0;
    double NewBlock = 0;
    for (size_t I = 0; I < NumVariants; ++I) {
      Variant V = AllVariants[I];
      const BenchResult &R = Grid[B * NumVariants + I];
      if (V == Variant::Base)
        Base = R;
      double Total = double(R.Stats.totalCycles());
      double BaseTotal = double(Base.Stats.totalCycles());
      if (V == Variant::HwPrefetch || V == Variant::SwPrefetch)
        BestPrefetch = BestPrefetch == 0 ? Total : std::min(BestPrefetch, Total);
      if (usesCcMorph(V))
        MorphBest = MorphBest == 0 ? Total : std::min(MorphBest, Total);
      if (V == Variant::CcMallocNewBlock)
        NewBlock = Total;
      Table.addRow(
          {shortName(V), bench::pct(Total, BaseTotal),
           TablePrinter::fmt(100.0 * R.Stats.BusyCycles / Total, 1),
           TablePrinter::fmt(100.0 * R.Stats.L1StallCycles / Total, 1),
           TablePrinter::fmt(100.0 * R.Stats.L2StallCycles / Total, 1),
           TablePrinter::fmt(100.0 * R.Stats.TlbStallCycles / Total, 1),
           TablePrinter::fmt(100.0 * R.Stats.PrefetchIssueCycles / Total, 1),
           TablePrinter::fmtInt(R.Stats.L2Misses),
           R.Checksum == Base.Checksum ? "yes" : "NO!"});
      Json.beginResult(Bench.Name);
      Json.str("variant", shortName(V));
      Json.num("norm_time", 100.0 * Total / BaseTotal);
      Json.integer("total_cycles", R.Stats.totalCycles());
      Json.integer("busy_cycles", R.Stats.BusyCycles);
      Json.integer("l1_stall_cycles", R.Stats.L1StallCycles);
      Json.integer("l2_stall_cycles", R.Stats.L2StallCycles);
      Json.integer("tlb_stall_cycles", R.Stats.TlbStallCycles);
      Json.integer("l2_misses", R.Stats.L2Misses);
      Json.integer("sim_l1_misses", R.Stats.L1Misses);
      Json.integer("sim_l2_misses", R.Stats.L2Misses);
      Json.integer("sim_tlb_misses", R.Stats.TlbMisses);
      Json.integer("checksum_ok", R.Checksum == Base.Checksum ? 1 : 0);
    }
    Table.print();
    double BaseTotal = double(Base.Stats.totalCycles());
    std::printf("speedups: ccmorph(best) %s over base, %s over best "
                "prefetch; ccmalloc-NA %s over best prefetch\n\n",
                bench::speedupStr(BaseTotal, MorphBest).c_str(),
                bench::speedupStr(BestPrefetch, MorphBest).c_str(),
                bench::speedupStr(BestPrefetch, NewBlock).c_str());
  }

  std::printf("Paper shape to check: ccmorph > prefetching on all four; "
              "ccmalloc-NA > prefetching except treeadd;\n"
              "treeadd/perimeter gains modest (creation order == dominant "
              "traversal order).\n");
  Json.writeIfRequested(bench::benchOutPath(Argc, Argv));
  obs::dumpProcessMetrics(bench::metricsOutPath(Argc, Argv));
  return 0;
}
