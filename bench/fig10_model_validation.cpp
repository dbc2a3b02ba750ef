//===- bench/fig10_model_validation.cpp - Paper Figure 10 --------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Figure 10: "Predicted and actual speedup for C-trees" — the Section 5
// analytic model's predicted cache-conscious speedup vs the measured
// speedup, across tree sizes 262,144 .. 4,194,304 keys (1M repeated
// searches in the paper; steady-state window here). The paper reports
// the model underestimating actual speedup by ~15% while matching the
// curve shape.
//
// "Actual" here is the simulated cycle ratio of a randomly-laid-out tree
// to a transparent C-tree on the E5000 memory model (the paper measured
// wall time on the real E5000).
//
// Measurement structure: each (tree size x structure) cell's warmup and
// window searches are recorded serially into one sim::TraceBuffer, then
// every cell replays on its own SweepRunner cell through a cold
// MemoryHierarchy — the warmup prefix, then the measured window,
// through one bounded TraceCursor.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "model/CTreeModel.h"
#include "sim/AccessPolicy.h"
#include "support/Random.h"
#include "support/SweepRunner.h"
#include "trees/BinaryTree.h"
#include "trees/CTree.h"
#include "trees/CompactTree.h"

#include <cinttypes>
#include <vector>

using namespace ccl;
using namespace ccl::trees;

namespace {

/// The four structures measured per tree size; each is one independent
/// sweep cell.
enum StructKind { Random64, CTree64, CompactRandom, CompactCTree };
constexpr size_t NumStructKinds = 4;

/// One cell's recorded access stream: warmup searches, a prefix mark,
/// then the measured window.
struct CellTrace {
  sim::TraceBuffer Buf;
  size_t WarmupRecords = 0;
};

/// Records one cell's warmup+window search stream (native traversal, no
/// simulation). Recording runs serially in the main thread so the
/// captured addresses — and therefore the simulated set indices after
/// the first-touch remap — do not depend on how concurrently-built
/// trees would have interleaved their heap allocations; the tree itself
/// is freed on return, leaving only the compact trace.
CellTrace recordCell(unsigned TreeBits, StructKind Kind, unsigned Warmup,
                     unsigned Window, const CacheParams &Params) {
  uint64_t NumKeys = (1ULL << TreeBits) - 1;
  CellTrace Trace;
  sim::RecordAccess A(Trace.Buf);
  auto Drive = [&](auto &&Search) {
    Xoshiro256 Rng(0xF1'0A11ULL);
    for (unsigned I = 0; I < Warmup; ++I)
      Search(BinarySearchTree::keyAt(Rng.nextBounded(NumKeys)), A);
    Trace.WarmupRecords = Trace.Buf.records();
    for (unsigned I = 0; I < Window; ++I)
      Search(BinarySearchTree::keyAt(Rng.nextBounded(NumKeys)), A);
    Trace.Buf.seal();
  };
  switch (Kind) {
  case Random64: {
    auto Random = BinarySearchTree::build(NumKeys, LayoutScheme::Random);
    Drive([&](uint32_t Key, auto &P) { Random.search(Key, P); });
    break;
  }
  case CTree64: {
    CTree Ctree(Params);
    {
      auto Source = BinarySearchTree::build(NumKeys, LayoutScheme::Random);
      Ctree.adopt(Source.root());
    }
    Drive([&](uint32_t Key, auto &P) { Ctree.search(Key, P); });
    break;
  }
  case CompactRandom: {
    CompactTree CRandom = CompactTree::build(NumKeys, Params,
                                             LayoutScheme::Random, false);
    Drive([&](uint32_t Key, auto &P) { CRandom.contains(Key, P); });
    break;
  }
  case CompactCTree: {
    CompactTree CCtree = CompactTree::build(NumKeys, Params,
                                            LayoutScheme::Subtree, true);
    Drive([&](uint32_t Key, auto &P) { CCtree.contains(Key, P); });
    break;
  }
  }
  return Trace;
}

/// Replays a recorded cell through its own cold hierarchy: warm the
/// cache with the warmup prefix, then measure the steady-state window.
/// One bounded cursor carries both phases, so the window resumes
/// exactly where the warmup stopped.
uint64_t replayCell(const CellTrace &Trace,
                    const sim::HierarchyConfig &Config) {
  sim::MemoryHierarchy M(Config);
  sim::TraceCursor Cursor(Trace.Buf.view());
  M.replay(Cursor, Trace.WarmupRecords);
  uint64_t Start = M.now();
  M.replay(Cursor, Cursor.remaining());
  return M.now() - Start;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Full = bench::fullScale(Argc, Argv);
  bench::printHeader("Figure 10: predicted vs actual C-tree speedup",
                     "Chilimbi/Hill/Larus PLDI'99, Fig. 10 + Section 5.4",
                     Full);

  sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();
  // The model does not capture TLB effects (the paper names this as one
  // reason it underestimates actual speedup); keep the TLB on so the
  // measurement, like the paper's, includes them.
  CacheParams Params = CacheParams::fromHierarchy(Config);
  model::MemoryTimings Timings = model::MemoryTimings::ultraSparcE5000();

  std::vector<unsigned> Bits = {18, 19, 20};
  if (Full) {
    Bits.push_back(21);
    Bits.push_back(22); // Paper's 4,194,304-key point.
  }
  unsigned Warmup = 4000;
  unsigned Window = Full ? 40000 : 15000;

  uint64_t NodesPerBlock =
      std::max<uint64_t>(1, Params.BlockBytes / sizeof(BstNode));
  std::printf("subtree cluster size k = %" PRIu64
              " (paper used k=3 with 20-byte SPARC-32 nodes; 64-bit "
              "pointers make our node 24 bytes)\n\n",
              NodesPerBlock);

  // Record once, replay many: each (tree size, structure) cell's search
  // stream is recorded serially (deterministic allocation order, so the
  // captured addresses never depend on thread interleaving), then every
  // cell replays its warmup+window recording through its own cold
  // hierarchy on its own SweepRunner cell. Replays of sealed buffers
  // are independent, so the statistics are bit-identical to a serial
  // simulating sweep at any thread count.
  std::vector<CellTrace> Traces;
  Traces.reserve(Bits.size() * NumStructKinds);
  for (size_t Cell = 0; Cell < Bits.size() * NumStructKinds; ++Cell)
    Traces.push_back(recordCell(Bits[Cell / NumStructKinds],
                                StructKind(Cell % NumStructKinds), Warmup,
                                Window, Params));
  std::vector<uint64_t> Cycles(Traces.size());
  SweepRunner Runner;
  Runner.run(Traces.size(), [&](size_t Cell) {
    Cycles[Cell] = replayCell(Traces[Cell], Config);
  });

  bench::BenchJson Json("fig10", Full);
  TablePrinter Table({"tree keys", "D=log2(n+1)", "Rs(k=2)",
                      "predicted k=2", "measured k=2", "predicted k=4",
                      "measured k=4 (compact)"});
  for (size_t I = 0; I < Bits.size(); ++I) {
    uint64_t NumKeys = (1ULL << Bits[I]) - 1;
    const uint64_t *Cell = &Cycles[I * NumStructKinds];
    double Measured = double(Cell[Random64]) / double(Cell[CTree64]);

    model::CTreeModel Model(NumKeys, Params, NodesPerBlock);
    double Predicted = Model.predictedSpeedup(Timings);

    // The paper's SPARC-32 regime (k = 3 there; k = 4 with our 16-byte
    // compact nodes).
    double CMeasured =
        double(Cell[CompactRandom]) / double(Cell[CompactCTree]);
    model::CTreeModel CModel(
        NumKeys, Params,
        std::max<uint64_t>(1, Params.BlockBytes / sizeof(CompactBstNode)));
    double CPredicted = CModel.predictedSpeedup(Timings);

    Table.addRow({TablePrinter::fmtInt(NumKeys),
                  TablePrinter::fmt(Model.accessFunctionD(), 2),
                  TablePrinter::fmt(Model.reuseRs(), 2),
                  TablePrinter::fmt(Predicted, 2) + "x",
                  TablePrinter::fmt(Measured, 2) + "x",
                  TablePrinter::fmt(CPredicted, 2) + "x",
                  TablePrinter::fmt(CMeasured, 2) + "x"});

    Json.beginResult("ctree_speedup");
    Json.integer("tree_keys", NumKeys);
    Json.num("predicted_k2", Predicted);
    Json.num("measured_k2", Measured);
    Json.num("predicted_k4", CPredicted);
    Json.num("measured_k4", CMeasured);
    Json.integer("random_cycles", Cell[Random64]);
    Json.integer("ctree_cycles", Cell[CTree64]);
    Json.integer("compact_random_cycles", Cell[CompactRandom]);
    Json.integer("compact_ctree_cycles", Cell[CompactCTree]);
  }
  Table.print();
  std::printf("\nPaper shape to check: both curves decline as the tree "
              "outgrows the colored hot region.\nThe closed form assumes "
              "a worst-case naive layout (L2 miss rate 1); the simulated "
              "naive tree\nkeeps its frequently-touched top levels "
              "resident, so the prediction overshoots here where the\n"
              "paper's real-machine baseline (heavier TLB and memory "
              "system penalties) made it undershoot by ~15%%.\n");
  Json.writeIfRequested(bench::benchOutPath(Argc, Argv));
  return 0;
}
