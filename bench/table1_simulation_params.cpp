//===- bench/table1_simulation_params.cpp - Paper Table 1 --------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Table 1: "Simulation Parameters" — prints the live configuration of
// the memory-hierarchy simulator used for the Figure 7 experiments and
// self-checks its latencies by probing. (Our simulator is trace-driven,
// not an out-of-order core, so the issue-width / functional-unit rows of
// the original table have no equivalent; the memory-system rows — the
// ones the paper's results hinge on — are reproduced exactly.)
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "sim/MemoryHierarchy.h"

using namespace ccl;
using namespace ccl::sim;

namespace {

void printConfig(const char *Name, const HierarchyConfig &Config) {
  std::printf("%s:\n", Name);
  TablePrinter Table({"parameter", "value"});
  auto KB = [](uint64_t Bytes) {
    return TablePrinter::fmtInt(Bytes / 1024) + " KB";
  };
  Table.addRow({"L1 data cache",
                KB(Config.L1.CapacityBytes) + ", " +
                    TablePrinter::fmtInt(Config.L1.Associativity) +
                    "-way, " + TablePrinter::fmtInt(Config.L1.BlockBytes) +
                    "B blocks"});
  Table.addRow({"L2 cache",
                KB(Config.L2.CapacityBytes) + ", " +
                    TablePrinter::fmtInt(Config.L2.Associativity) +
                    "-way, " + TablePrinter::fmtInt(Config.L2.BlockBytes) +
                    "B blocks"});
  Table.addRow({"L1 hit",
                TablePrinter::fmtInt(Config.L1.HitLatency) + " cycle"});
  Table.addRow({"L1 miss (L2 hit)",
                TablePrinter::fmtInt(Config.L2.HitLatency) + " cycles"});
  Table.addRow({"L2 miss",
                TablePrinter::fmtInt(Config.MemoryLatency) + " cycles"});
  Table.addRow({"TLB", TablePrinter::fmtInt(Config.Tlb.Entries) +
                           " entries, " +
                           KB(Config.Tlb.PageBytes) + " pages, " +
                           TablePrinter::fmtInt(Config.Tlb.MissLatency) +
                           "-cycle miss"});
  Table.print();
}

/// Observed latencies from probing a live hierarchy.
struct ProbeResult {
  uint64_t L1Hit = 0;
  uint64_t L2Hit = 0;
  uint64_t Memory = 0;
};

/// Probes the hierarchy to confirm the configured latencies are what a
/// workload actually observes.
ProbeResult selfCheck(const HierarchyConfig &ConfigIn) {
  HierarchyConfig Config = ConfigIn;
  Config.Tlb.Enabled = false;
  MemoryHierarchy M(Config);

  uint64_t T0 = M.now();
  M.read(0x100000, 4); // Cold: full miss.
  uint64_t ColdCost = M.now() - T0;
  T0 = M.now();
  M.read(0x100000, 4); // L1 hit.
  uint64_t HitCost = M.now() - T0;

  // Evict from L1 only: touch enough conflicting L1 sets.
  uint64_t Stride = Config.L1.CapacityBytes;
  for (uint64_t I = 1; I <= Config.L1.Associativity; ++I)
    M.read(0x100000 + I * Stride, 4);
  T0 = M.now();
  M.read(0x100000, 4);
  uint64_t L2HitCost = M.now() - T0;

  std::printf("self-check: L1 hit = %llu cy, L2 hit = %llu cy, "
              "memory = %llu cy (expected %u / %u / %u)\n\n",
              (unsigned long long)HitCost, (unsigned long long)L2HitCost,
              (unsigned long long)ColdCost, Config.L1.HitLatency,
              Config.L1.HitLatency + Config.L2.HitLatency,
              Config.L1.HitLatency + Config.L2.HitLatency +
                  Config.MemoryLatency);
  return {HitCost, L2HitCost, ColdCost};
}

/// One ccl-bench-v1 result per preset: the configured parameters plus
/// the self-check's observed latencies, so bench_compare.py can diff
/// simulator configuration drift across commits.
void emitConfig(bench::BenchJson &Json, const char *Name,
                const HierarchyConfig &Config, const ProbeResult &Probe) {
  Json.beginResult(Name);
  Json.integer("l1_capacity_bytes", Config.L1.CapacityBytes);
  Json.integer("l1_associativity", Config.L1.Associativity);
  Json.integer("l1_block_bytes", Config.L1.BlockBytes);
  Json.integer("l2_capacity_bytes", Config.L2.CapacityBytes);
  Json.integer("l2_associativity", Config.L2.Associativity);
  Json.integer("l2_block_bytes", Config.L2.BlockBytes);
  Json.integer("l1_hit_cycles", Config.L1.HitLatency);
  Json.integer("l2_hit_cycles", Config.L2.HitLatency);
  Json.integer("memory_cycles", Config.MemoryLatency);
  Json.integer("tlb_entries", Config.Tlb.Entries);
  Json.integer("tlb_page_bytes", Config.Tlb.PageBytes);
  Json.integer("tlb_miss_cycles", Config.Tlb.MissLatency);
  Json.integer("probed_l1_hit_cycles", Probe.L1Hit);
  Json.integer("probed_l2_hit_cycles", Probe.L2Hit);
  Json.integer("probed_memory_cycles", Probe.Memory);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Full = bench::fullScale(Argc, Argv);
  bench::printHeader("Table 1: simulation parameters",
                     "Chilimbi/Hill/Larus PLDI'99, Table 1 + Section 4.1",
                     Full);

  printConfig("RSIM preset (Table 1; used for Figure 7)",
              HierarchyConfig::rsimTable1());
  ProbeResult Rsim = selfCheck(HierarchyConfig::rsimTable1());

  printConfig("Sun Ultraserver E5000 preset (Section 4.1; used for "
              "Figures 5, 6, 10)",
              HierarchyConfig::ultraSparcE5000());
  ProbeResult Ultra = selfCheck(HierarchyConfig::ultraSparcE5000());

  // Machine-readable summary (--out <path>).
  bench::BenchJson Json("table1", Full);
  emitConfig(Json, "rsim_table1", HierarchyConfig::rsimTable1(), Rsim);
  emitConfig(Json, "ultrasparc_e5000", HierarchyConfig::ultraSparcE5000(),
             Ultra);
  Json.writeIfRequested(bench::benchOutPath(Argc, Argv));
  return 0;
}
