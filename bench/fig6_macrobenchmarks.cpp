//===- bench/fig6_macrobenchmarks.cpp - Paper Figure 6 -----------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Figure 6: "RADIANCE and VIS applications" — normalized execution time
// of two real-world workloads. Substitutions (see DESIGN.md):
//
//  * RADIANCE (octree-based ray tracer) -> src/raytrace: octree ray
//    caster; layouts: base, ccmorph clustering, clustering + coloring.
//    The measurement includes the reorganization overhead, as in the
//    paper. Paper result: 42% speedup from clustering + coloring.
//
//  * VIS (BDD-based formal verification) -> src/bdd: N-queens + adder
//    equivalence + random evaluations; allocation via plain malloc vs
//    ccmalloc-new-block (BDDs are DAGs, so ccmorph does not apply).
//    Paper result: 27% speedup.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "bdd/BddWorkloads.h"
#include "bench/BenchCommon.h"
#include "obs/MetricsExport.h"
#include "raytrace/Raytrace.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/SweepRunner.h"

#include <cinttypes>
#include <vector>

using namespace ccl;

namespace {

/// Ages the heap the way hours of prior work age a long-running process
/// like VIS: a large churn of allocations and interleaved frees leaves
/// the free lists full of scattered chunks. Subsequent plain mallocs
/// recycle those scattered holes (destroying allocation-order locality),
/// while ccmalloc's hints keep placing related nodes together — exactly
/// the situation the paper's VIS experiment started from.
void ageHeap(CcAllocator &Alloc, size_t ChunkBytes, unsigned Count,
             uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  std::vector<void *> Live;
  Live.reserve(Count);
  for (unsigned I = 0; I < Count; ++I)
    Live.push_back(Alloc.ccmalloc(ChunkBytes));
  Rng.shuffle(Live);
  // Free a scattered 60%, leaving fragmented pages behind.
  size_t Keep = Live.size() * 2 / 5;
  for (size_t I = Keep; I < Live.size(); ++I)
    Alloc.ccfree(Live[I]);
}

/// VIS-substitute workload: symbolic construction + counting + a heavy
/// random-evaluation phase. Returns total simulated cycles.
uint64_t runVisWorkload(bool UseCcMalloc, heap::CcStrategy Strategy,
                        unsigned QueensN, uint64_t Evals,
                        const sim::HierarchyConfig &Config,
                        uint64_t &Checksum, uint64_t &NodesOut,
                        uint64_t &FootprintOut) {
  sim::MemoryHierarchy Hierarchy(Config);
  CcAllocator Alloc(CacheParams::fromHierarchy(Config), Strategy);
  // VIS is a long-running system: its heap is aged before the measured
  // BDD phase begins (not simulated; setup only).
  ageHeap(Alloc, sizeof(bdd::BddNode), 300000, 0xA6EDULL);
  bdd::BddManager Mgr(QueensN * QueensN, Alloc, &Hierarchy, UseCcMalloc);

  bdd::BddNode *Queens = bdd::buildNQueens(Mgr, QueensN);
  double Solutions = Mgr.satCount(Queens);
  uint64_t Hits = bdd::evalRandom(Mgr, Queens, Evals, 0x715ULL);

  // Adder equivalence check on the same manager (shares the node pool).
  unsigned Bits = QueensN * QueensN / 2;
  bdd::BddNode *Miter = bdd::buildAdderEquivalence(Mgr, Bits);

  Checksum = uint64_t(Solutions) * 1000 + Hits +
             (Miter == Mgr.zero() ? 7 : 0);
  NodesOut = Mgr.uniqueNodes();
  FootprintOut = Alloc.footprintBytes();
  return Hierarchy.stats().totalCycles();
}

} // namespace

int main(int Argc, char **Argv) {
  bool Full = bench::fullScale(Argc, Argv);
  bench::printHeader(
      "Figure 6: RADIANCE and VIS applications (substitutes)",
      "Chilimbi/Hill/Larus PLDI'99, Fig. 6 (E5000 memory system)", Full);

  sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();

  //===------------------------------------------------------------------===//
  // RADIANCE substitute: octree ray casting.
  //===------------------------------------------------------------------===//
  raytrace::RaytraceConfig RC;
  RC.NumSpheres = Full ? 150000 : 50000;
  RC.NumRays = Full ? 250000 : 150000;
  RC.MaxDepth = 9;
  RC.LeafCapacity = 4;

  unsigned QueensN = Full ? 8 : 7;
  uint64_t Evals = Full ? 400000 : 200000;

  // Simulated cells — three raytrace layouts and four VIS allocator
  // configurations — are independent (each builds its own scene/heap and
  // drives its own hierarchy), so they fan out across SweepRunner
  // workers into preallocated slots. The native raytrace runs are real
  // wall-clock measurements and stay serial, after the parallel phase,
  // so they never time under load. Presentation below reads the slots in
  // the original serial order.
  constexpr raytrace::RtLayout RtLayouts[] = {
      raytrace::RtLayout::Base, raytrace::RtLayout::Cluster,
      raytrace::RtLayout::ClusterColor};
  constexpr size_t NumRt = std::size(RtLayouts);
  struct VisCell {
    bool UseCcMalloc;
    heap::CcStrategy Strategy;
    uint64_t Cycles = 0;
    uint64_t Checksum = 0, Nodes = 0, Footprint = 0;
  };
  VisCell VisCells[] = {{false, heap::CcStrategy::NewBlock},
                        {true, heap::CcStrategy::NewBlock},
                        {true, heap::CcStrategy::Closest},
                        {true, heap::CcStrategy::FirstFit}};
  constexpr size_t NumVis = std::size(VisCells);

  std::vector<raytrace::RtResult> RtSim(NumRt);
  SweepRunner Runner;
  {
    metrics::ScopedSpan SimSpan("fig6.sim");
    Runner.run(NumRt + NumVis, [&](size_t Cell) {
      if (Cell < NumRt) {
        RtSim[Cell] = raytrace::runRaytrace(RC, RtLayouts[Cell], &Config);
        return;
      }
      VisCell &V = VisCells[Cell - NumRt];
      V.Cycles = runVisWorkload(V.UseCcMalloc, V.Strategy, QueensN, Evals,
                                Config, V.Checksum, V.Nodes, V.Footprint);
    });
  }

  std::printf("RADIANCE substitute: octree over %u spheres, %u rays\n",
              RC.NumSpheres, RC.NumRays);
  TablePrinter Rad({"layout", "norm time", "cycles", "L2 misses",
                    "native ms", "checksum ok"});
  double RadBase = 0;
  uint64_t RadChecksum = 0;
  bench::BenchJson Json("fig6", Full);
  for (size_t I = 0; I < NumRt; ++I) {
    raytrace::RtLayout L = RtLayouts[I];
    const raytrace::RtResult &Sim = RtSim[I];
    raytrace::RtResult Native;
    {
      metrics::ScopedSpan NativeSpan("fig6.native_raytrace");
      Native = raytrace::runRaytrace(RC, L, nullptr);
    }
    double Total = double(Sim.Stats.totalCycles());
    if (L == raytrace::RtLayout::Base) {
      RadBase = Total;
      RadChecksum = Sim.Checksum;
    }
    Rad.addRow({raytrace::rtLayoutName(L), bench::pct(Total, RadBase),
                TablePrinter::fmtInt(Sim.Stats.totalCycles()),
                TablePrinter::fmtInt(Sim.Stats.L2Misses),
                TablePrinter::fmt(Native.NativeSeconds * 1000, 1),
                Sim.Checksum == RadChecksum ? "yes" : "NO!"});
    if (L != raytrace::RtLayout::Base)
      std::printf("%s speedup: %s (paper: 1.42x / 42%% for "
                  "clustering+coloring)\n",
                  raytrace::rtLayoutName(L),
                  bench::speedupStr(RadBase, Total).c_str());
    Json.beginResult("radiance");
    Json.str("layout", raytrace::rtLayoutName(L));
    Json.num("norm_time", 100.0 * Total / RadBase);
    Json.integer("total_cycles", Sim.Stats.totalCycles());
    Json.integer("l2_misses", Sim.Stats.L2Misses);
    Json.integer("sim_l1_misses", Sim.Stats.L1Misses);
    Json.integer("sim_l2_misses", Sim.Stats.L2Misses);
    Json.integer("sim_tlb_misses", Sim.Stats.TlbMisses);
    Json.num("native_ms", Native.NativeSeconds * 1000);
    Json.integer("checksum_ok", Sim.Checksum == RadChecksum ? 1 : 0);
  }
  Rad.print();

  //===------------------------------------------------------------------===//
  // VIS substitute: BDD package.
  //===------------------------------------------------------------------===//
  std::printf("\nVIS substitute: BDD %u-queens + %u-bit adder equivalence "
              "+ %" PRIu64 " evaluations\n",
              QueensN, QueensN * QueensN / 2, Evals);

  TablePrinter Vis({"allocator", "norm time", "cycles", "BDD nodes",
                    "heap KB", "checksum ok"});
  const VisCell &Base = VisCells[0];
  Vis.addRow({"malloc (base)", "100.0%", TablePrinter::fmtInt(Base.Cycles),
              TablePrinter::fmtInt(Base.Nodes),
              TablePrinter::fmtInt(Base.Footprint / 1024), "yes"});
  Json.beginResult("vis");
  Json.str("allocator", "malloc");
  Json.num("norm_time", 100.0);
  Json.integer("total_cycles", Base.Cycles);
  Json.integer("bdd_nodes", Base.Nodes);
  Json.integer("heap_bytes", Base.Footprint);
  Json.integer("checksum_ok", 1);
  for (size_t I = 1; I < NumVis; ++I) {
    const VisCell &V = VisCells[I];
    Vis.addRow({std::string("ccmalloc ") + heap::strategyName(V.Strategy),
                bench::pct(double(V.Cycles), double(Base.Cycles)),
                TablePrinter::fmtInt(V.Cycles),
                TablePrinter::fmtInt(V.Nodes),
                TablePrinter::fmtInt(V.Footprint / 1024),
                V.Checksum == Base.Checksum ? "yes" : "NO!"});
    if (V.Strategy == heap::CcStrategy::NewBlock)
      std::printf("ccmalloc-new-block speedup: %s (paper: 1.27x / 27%%)\n",
                  bench::speedupStr(double(Base.Cycles), double(V.Cycles))
                      .c_str());
    Json.beginResult("vis");
    Json.str("allocator", heap::strategyName(V.Strategy));
    Json.num("norm_time", 100.0 * double(V.Cycles) / double(Base.Cycles));
    Json.integer("total_cycles", V.Cycles);
    Json.integer("bdd_nodes", V.Nodes);
    Json.integer("heap_bytes", V.Footprint);
    Json.integer("checksum_ok", V.Checksum == Base.Checksum ? 1 : 0);
  }
  Vis.print();
  Json.writeIfRequested(bench::benchOutPath(Argc, Argv));
  obs::dumpProcessMetrics(bench::metricsOutPath(Argc, Argv));
  return 0;
}
