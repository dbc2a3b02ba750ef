//===- bench/table3_technique_summary.cpp - Paper Table 3 --------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Table 3: "Summary of cache-conscious data placement techniques" — the
// qualitative trade-off table, with the "Performance" column backed by
// quick live measurements from this repository's own benchmarks.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "olden/Health.h"
#include "olden/Mst.h"

using namespace ccl;
using namespace ccl::olden;

int main(int Argc, char **Argv) {
  bool Full = bench::fullScale(Argc, Argv);
  bench::printHeader("Table 3: summary of cache-conscious placement "
                     "techniques",
                     "Chilimbi/Hill/Larus PLDI'99, Table 3", Full);

  // Quick live measurements backing the Performance column.
  sim::HierarchyConfig Config = sim::HierarchyConfig::rsimTable1();
  MstConfig Mst;
  Mst.NumVertices = Full ? 512 : 256;
  Mst.Degree = 16;
  double MstBase =
      double(runMst(Mst, Variant::Base, &Config).Stats.totalCycles());
  double MstMorph = double(
      runMst(Mst, Variant::CcMorphColor, &Config).Stats.totalCycles());

  HealthConfig Health;
  Health.MaxLevel = Full ? 3 : 2;
  Health.Steps = Full ? 800 : 400;
  double HealthBase =
      double(runHealth(Health, Variant::Base, &Config).Stats.totalCycles());
  double HealthNa = double(
      runHealth(Health, Variant::CcMallocNewBlock, &Config)
          .Stats.totalCycles());

  TablePrinter Table({"technique", "data structures", "program knowledge",
                      "architectural knowledge", "source modification",
                      "performance (paper)", "measured here"});
  Table.addRow({"CC design (by hand)", "universal", "high", "high",
                "large", "high", "-"});
  Table.addRow({"ccmorph", "tree-like", "moderate", "low", "small",
                "moderate-high",
                bench::speedupStr(MstBase, MstMorph) + " (mst)"});
  Table.addRow({"ccmalloc", "universal", "low", "none", "small",
                "moderate-high",
                bench::speedupStr(HealthBase, HealthNa) + " (health)"});
  Table.print();

  std::printf("\nSafety (paper §3.2): misusing ccmorph can break "
              "correctness (it moves objects); misusing ccmalloc\nonly "
              "costs performance — every benchmark in this repository "
              "asserts checksum equality across variants.\n");

  // Machine-readable summary (--out <path>).
  bench::BenchJson Json("table3", Full);
  Json.beginResult("ccmorph");
  Json.str("workload", "mst");
  Json.num("base_cycles", MstBase);
  Json.num("optimized_cycles", MstMorph);
  Json.num("speedup", MstMorph > 0.0 ? MstBase / MstMorph : 0.0);
  Json.beginResult("ccmalloc");
  Json.str("workload", "health");
  Json.num("base_cycles", HealthBase);
  Json.num("optimized_cycles", HealthNa);
  Json.num("speedup", HealthNa > 0.0 ? HealthBase / HealthNa : 0.0);
  Json.writeIfRequested(bench::benchOutPath(Argc, Argv));
  return 0;
}
