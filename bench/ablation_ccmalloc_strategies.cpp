//===- bench/ablation_ccmalloc_strategies.cpp - §3.2.1/§4.4 ablation ---------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Ablation over the three ccmalloc placement strategies (closest /
// new-block / first-fit) plus the §4.4 control experiments:
//
//  * memory overhead of new-block vs the others (paper: +12% treeadd,
//    +30% perimeter, +7% health, +3% mst);
//  * the null-hint control (every ccmalloc hint replaced by null), which
//    the paper found runs 2-6% *slower* than base malloc.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "olden/Health.h"
#include "olden/Mst.h"
#include "olden/Perimeter.h"
#include "olden/TreeAdd.h"
#include "support/SweepRunner.h"

#include <functional>
#include <iterator>

using namespace ccl;
using namespace ccl::olden;

int main(int Argc, char **Argv) {
  bool Full = bench::fullScale(Argc, Argv);
  bench::printHeader("Ablation: ccmalloc strategies, memory overhead, and "
                     "null-hint control",
                     "Chilimbi/Hill/Larus PLDI'99, §3.2.1 and §4.4", Full);

  TreeAddConfig TreeAdd;
  TreeAdd.Levels = Full ? 18 : 16;
  TreeAdd.Iterations = 8;
  HealthConfig Health;
  Health.MaxLevel = Full ? 3 : 2;
  Health.Steps = Full ? 1000 : 500;
  MstConfig Mst;
  Mst.NumVertices = Full ? 512 : 256;
  Mst.Degree = 16;
  PerimeterConfig Perimeter;
  Perimeter.Levels = Full ? 12 : 10;

  struct Row {
    const char *Name;
    std::function<BenchResult(Variant, const sim::HierarchyConfig *)> Run;
  };
  std::vector<Row> Benchmarks = {
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

  // Every (benchmark, variant) pair is an independent deterministic
  // simulation, so the whole grid runs as parallel sweep cells; the two
  // tables below are assembled from the completed grid in presentation
  // order. Base feeds both tables (runs are deterministic, so one run is
  // equivalent to the two a serial script would do).
  const Variant Variants[] = {Variant::Base, Variant::CcMallocFirstFit,
                              Variant::CcMallocClosest,
                              Variant::CcMallocNewBlock,
                              Variant::CcMallocNull};
  constexpr size_t NumVariants = std::size(Variants);
  std::vector<BenchResult> Grid(Benchmarks.size() * NumVariants);
  SweepRunner Runner;
  Runner.run(Grid.size(), [&](size_t Cell) {
    const Row &Bench = Benchmarks[Cell / NumVariants];
    Grid[Cell] = Bench.Run(Variants[Cell % NumVariants], &Config);
  });
  auto ResultFor = [&](size_t BenchIdx, Variant V) -> const BenchResult & {
    for (size_t I = 0; I < NumVariants; ++I)
      if (Variants[I] == V)
        return Grid[BenchIdx * NumVariants + I];
    std::abort();
  };

  TablePrinter Table({"benchmark", "strategy", "norm time", "memory",
                      "overhead vs closest"});
  for (size_t B = 0; B < Benchmarks.size(); ++B) {
    double BaseCycles =
        double(ResultFor(B, Variant::Base).Stats.totalCycles());
    const BenchResult &Closest = ResultFor(B, Variant::CcMallocClosest);
    for (auto [V, Name] :
         {std::pair{Variant::CcMallocFirstFit, "first-fit"},
          std::pair{Variant::CcMallocClosest, "closest"},
          std::pair{Variant::CcMallocNewBlock, "new-block"}}) {
      const BenchResult &R = ResultFor(B, V);
      double Overhead =
          100.0 * (double(R.HeapFootprintBytes) /
                       double(Closest.HeapFootprintBytes) -
                   1.0);
      Table.addRow({Benchmarks[B].Name, Name,
                    bench::pct(double(R.Stats.totalCycles()), BaseCycles),
                    TablePrinter::fmtInt(R.HeapFootprintBytes / 1024) +
                        " KB",
                    TablePrinter::fmt(Overhead, 1) + "%"});
    }
    Table.addSeparator();
  }
  Table.print();
  std::printf("(paper: new-block needs +12%% memory on treeadd, +30%% "
              "perimeter, +7%% health, +3%% mst)\n\n");

  std::printf("Null-hint control (§4.4): all ccmalloc hints replaced by "
              "null — expect slightly slower than base.\n");
  TablePrinter Control({"benchmark", "base cycles", "null-hint cycles",
                        "null vs base"});
  for (size_t B = 0; B < Benchmarks.size(); ++B) {
    const BenchResult &Base = ResultFor(B, Variant::Base);
    const BenchResult &Null = ResultFor(B, Variant::CcMallocNull);
    double Percent = 100.0 * (double(Null.Stats.totalCycles()) /
                                  double(Base.Stats.totalCycles()) -
                              1.0);
    // Built with append: GCC 12 at -O3 warns (-Wrestrict, a false
    // positive) on "literal" + std::string.
    std::string Slower = "+";
    Slower.append(TablePrinter::fmt(Percent, 1)).append("%");
    Control.addRow({Benchmarks[B].Name,
                    TablePrinter::fmtInt(Base.Stats.totalCycles()),
                    TablePrinter::fmtInt(Null.Stats.totalCycles()), Slower});
  }
  Control.print();
  std::printf("(paper: control programs ran 2-6%% worse than base)\n");

  bench::BenchJson Json("ablation_ccmalloc_strategies", Full);
  const char *VariantNames[] = {"base", "first-fit", "closest", "new-block",
                                "null-hint"};
  for (size_t B = 0; B < Benchmarks.size(); ++B) {
    double BaseCycles =
        double(ResultFor(B, Variant::Base).Stats.totalCycles());
    for (size_t I = 0; I < NumVariants; ++I) {
      const BenchResult &R = Grid[B * NumVariants + I];
      Json.beginResult(Benchmarks[B].Name);
      Json.str("strategy", VariantNames[I]);
      Json.num("norm_time",
               100.0 * double(R.Stats.totalCycles()) / BaseCycles);
      Json.integer("total_cycles", R.Stats.totalCycles());
      Json.integer("heap_bytes", R.HeapFootprintBytes);
    }
  }
  Json.writeIfRequested(bench::benchOutPath(Argc, Argv));
  return 0;
}
