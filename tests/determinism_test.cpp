//===- tests/determinism_test.cpp - Simulated cells vs host placement -------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// A simulated cell's statistics must be a pure function of its inputs,
// not of where the host heap happens to put things. Each cell below runs
// four ways in one process: plain; with about 200 live malloc blocks of
// mixed sizes; on a fresh thread; and again on this thread, whose slab
// stash earlier runs have filled. Every SimStats field and the checksum
// must match across the four. The cells are Fig. 7's health ccmorph and
// ccmalloc cells at its default scale, one ccmorph cell of each other
// Olden benchmark, and Fig. 6's three RADIANCE layouts on a small scene:
// every simulated byte they touch comes from a CcHeap slab, a ccmorph
// frame or an allocateAligned region.
//
//===----------------------------------------------------------------------===//

#include "olden/Health.h"
#include "olden/Mst.h"
#include "olden/Perimeter.h"
#include "olden/TreeAdd.h"
#include "raytrace/Raytrace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace ccl;
using namespace ccl::olden;

namespace {

/// What a cell's runs are compared by.
struct Outcome {
  sim::SimStats Stats;
  uint64_t Checksum = 0;
};

template <typename Result> Outcome outcome(const Result &R) {
  return {R.Stats, R.Checksum};
}

struct Cell {
  std::string Name;
  std::function<Outcome()> Run;
};

void PrintTo(const Cell &C, std::ostream *OS) { *OS << C.Name; }

std::vector<Cell> cells() {
  static const sim::HierarchyConfig Sim = sim::HierarchyConfig::rsimTable1();
  HealthConfig Health; // Fig. 7's default scale.
  Health.MaxLevel = 3;
  Health.Steps = 500;
  Health.MorphInterval = 100;
  // The other three morph once; small inputs keep the tsan run short.
  TreeAddConfig TreeAdd;
  TreeAdd.Levels = 12;
  TreeAdd.Iterations = 2;
  PerimeterConfig Perimeter;
  Perimeter.Levels = 8;
  Perimeter.Iterations = 2;
  MstConfig Mst;
  Mst.NumVertices = 128;
  Mst.Degree = 16;
  // Fig. 6's octree parameters on a small scene: 1,000 spheres still
  // build a multi-level octree, and the tsan run stays short.
  static const sim::HierarchyConfig E5000 =
      sim::HierarchyConfig::ultraSparcE5000();
  raytrace::RaytraceConfig Scene;
  Scene.NumSpheres = 1000;
  Scene.NumRays = 1000;
  Scene.MaxDepth = 9;
  Scene.LeafCapacity = 4;

  auto HealthCell = [&](const char *Name, Variant V) {
    return Cell{Name, [=] { return outcome(runHealth(Health, V, &Sim)); }};
  };
  auto RadianceCell = [&](const char *Name, raytrace::RtLayout L) {
    return Cell{Name, [=] {
                  return outcome(raytrace::runRaytrace(Scene, L, &E5000));
                }};
  };
  const Variant Color = Variant::CcMorphColor;
  return {
      HealthCell("HealthCluster", Variant::CcMorphCluster),
      HealthCell("HealthClusterColor", Color),
      HealthCell("HealthNewBlock", Variant::CcMallocNewBlock),
      {"TreeAddClusterColor",
       [=] { return outcome(runTreeAdd(TreeAdd, Color, &Sim)); }},
      {"PerimeterClusterColor",
       [=] { return outcome(runPerimeter(Perimeter, Color, &Sim)); }},
      {"MstClusterColor", [=] { return outcome(runMst(Mst, Color, &Sim)); }},
      RadianceCell("RadianceBase", raytrace::RtLayout::Base),
      RadianceCell("RadianceCluster", raytrace::RtLayout::Cluster),
      RadianceCell("RadianceClusterColor", raytrace::RtLayout::ClusterColor),
  };
}

/// About 200 live host blocks, 16 bytes to 1 MiB, so glibc's bins, brk
/// top and mmap threshold differ from the plain run's.
class HostHeapJunk {
public:
  HostHeapJunk() {
    for (unsigned I = 0; I < 200; ++I) {
      size_t Bytes = size_t(16) << (I * 7 % 17);
      char *Block = static_cast<char *>(std::malloc(Bytes));
      Block[0] = char(I);
      Blocks.push_back(Block);
    }
  }
  ~HostHeapJunk() {
    for (void *Block : Blocks)
      std::free(Block);
  }

private:
  std::vector<void *> Blocks;
};

void expectSameRun(const Outcome &A, const Outcome &B, const char *Label) {
  SCOPED_TRACE(Label);
  const sim::SimStats &X = A.Stats;
  const sim::SimStats &Y = B.Stats;
  EXPECT_EQ(X.Reads, Y.Reads);
  EXPECT_EQ(X.Writes, Y.Writes);
  EXPECT_EQ(X.SwPrefetches, Y.SwPrefetches);
  EXPECT_EQ(X.HwPrefetches, Y.HwPrefetches);
  EXPECT_EQ(X.L1Hits, Y.L1Hits);
  EXPECT_EQ(X.L1Misses, Y.L1Misses);
  EXPECT_EQ(X.L2Hits, Y.L2Hits);
  EXPECT_EQ(X.L2Misses, Y.L2Misses);
  EXPECT_EQ(X.PrefetchFullHits, Y.PrefetchFullHits);
  EXPECT_EQ(X.PrefetchPartialHits, Y.PrefetchPartialHits);
  EXPECT_EQ(X.TlbMisses, Y.TlbMisses);
  EXPECT_EQ(X.Writebacks, Y.Writebacks);
  EXPECT_EQ(X.BusyCycles, Y.BusyCycles);
  EXPECT_EQ(X.L1StallCycles, Y.L1StallCycles);
  EXPECT_EQ(X.L2StallCycles, Y.L2StallCycles);
  EXPECT_EQ(X.TlbStallCycles, Y.TlbStallCycles);
  EXPECT_EQ(X.PrefetchIssueCycles, Y.PrefetchIssueCycles);
  EXPECT_EQ(A.Checksum, B.Checksum);
}

class HostPlacement : public ::testing::TestWithParam<Cell> {};

} // namespace

TEST_P(HostPlacement, SimulatedCellIgnoresHostHeapAndThread) {
  const Cell &C = GetParam();
  Outcome Plain = C.Run();
  Outcome WithJunk;
  {
    HostHeapJunk Junk;
    WithJunk = C.Run();
  }
  Outcome OnThread;
  std::thread([&] { OnThread = C.Run(); }).join();
  Outcome Warm = C.Run();

  EXPECT_GT(Plain.Stats.memoryReferences(), 0u);
  expectSameRun(Plain, WithJunk, "200 live malloc blocks");
  expectSameRun(Plain, OnThread, "fresh thread");
  expectSameRun(Plain, Warm, "warm slab stash");
}

INSTANTIATE_TEST_SUITE_P(FigureCells, HostPlacement,
                         ::testing::ValuesIn(cells()),
                         [](const ::testing::TestParamInfo<Cell> &Info) {
                           return Info.param.Name;
                         });
