//===- tests/coloring_test.cpp - ColoredArena unit tests ---------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "core/ColoredArena.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace ccl;

namespace {

/// 256 sets x 64B blocks, direct-mapped, hot = 64 sets; frame = 16KB.
CacheParams smallParams() {
  CacheParams P;
  P.CacheSets = 256;
  P.Associativity = 1;
  P.BlockBytes = 64;
  P.PageBytes = 4096;
  P.HotSets = 64;
  return P;
}

} // namespace

TEST(CacheParams, Derived) {
  CacheParams P = smallParams();
  EXPECT_TRUE(P.isValid());
  EXPECT_EQ(P.capacityBytes(), 256u * 64);
  EXPECT_EQ(P.hotCapacityBytes(), 64u * 64);
  EXPECT_EQ(P.setOf(0), 0u);
  EXPECT_EQ(P.setOf(64), 1u);
  EXPECT_EQ(P.setOf(64 * 256), 0u); // Wraps.
}

TEST(CacheParams, FromHierarchy) {
  sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();
  CacheParams P = CacheParams::fromHierarchy(Config);
  EXPECT_EQ(P.CacheSets, Config.L2.numSets());
  EXPECT_EQ(P.BlockBytes, Config.L2.BlockBytes);
  EXPECT_EQ(P.HotSets, P.CacheSets / 2);
  EXPECT_TRUE(P.isValid());
}

TEST(ColoredArena, HotAllocationsMapToHotSets) {
  ColoredArena Arena(smallParams());
  for (int I = 0; I < 500; ++I) {
    void *P = Arena.allocateIn(24, /*Hot=*/true);
    EXPECT_LT(Arena.setOf(P), 64u);
    EXPECT_TRUE(Arena.isHot(P));
  }
}

TEST(ColoredArena, ColdAllocationsMapToColdSets) {
  ColoredArena Arena(smallParams());
  for (int I = 0; I < 500; ++I) {
    void *P = Arena.allocateIn(24, /*Hot=*/false);
    EXPECT_GE(Arena.setOf(P), 64u);
    EXPECT_FALSE(Arena.isHot(P));
  }
}

TEST(ColoredArena, AllocationsNeverOverlap) {
  ColoredArena Arena(smallParams());
  Xoshiro256 Rng(3);
  std::vector<std::pair<uint64_t, uint64_t>> Ranges;
  for (int I = 0; I < 2000; ++I) {
    size_t Bytes = 1 + Rng.nextBounded(100);
    void *P = Arena.allocateIn(Bytes, Rng.nextBounded(2) != 0);
    std::fill(static_cast<char *>(P), static_cast<char *>(P) + Bytes, 'z');
    Ranges.push_back({addrOf(P), addrOf(P) + Bytes});
  }
  std::sort(Ranges.begin(), Ranges.end());
  for (size_t I = 1; I < Ranges.size(); ++I)
    EXPECT_LE(Ranges[I - 1].second, Ranges[I].first);
}

TEST(ColoredArena, NeverStraddlesABlock) {
  ColoredArena Arena(smallParams());
  Xoshiro256 Rng(7);
  for (int I = 0; I < 2000; ++I) {
    size_t Bytes = 1 + Rng.nextBounded(64);
    uint64_t First = addrOf(Arena.allocateIn(Bytes, Rng.nextBounded(2) != 0));
    EXPECT_EQ(First / 64, (First + Bytes - 1) / 64) << Bytes << " bytes";
  }
}

TEST(ColoredArena, AllocateGoesHotWhileTheBudgetLasts) {
  // Hot capacity = 64 sets * 1 way * 64B = 4096 bytes: 64 one-block
  // clusters, each charged its block-aligned footprint.
  ColoredArena Arena(smallParams());
  for (int I = 0; I < 64; ++I) {
    bool WasHot = false;
    EXPECT_TRUE(Arena.isHot(Arena.allocate(40, WasHot)));
    EXPECT_TRUE(WasHot);
  }
  bool WasHot = true;
  EXPECT_FALSE(Arena.isHot(Arena.allocate(40, WasHot)));
  EXPECT_FALSE(WasHot);
}

TEST(ColoredArena, HotRegionOverflowAdvancesFrame) {
  ColoredArena Arena(smallParams());
  // Hot region per frame = 64 sets * 64B = 4096 bytes.
  uint64_t FramesBefore = Arena.framesAllocated();
  for (int I = 0; I < 100; ++I)
    Arena.allocateIn(64, /*Hot=*/true);
  EXPECT_GT(Arena.framesAllocated(), FramesBefore);
  // Still hot after crossing frames.
  void *P = Arena.allocateIn(64, /*Hot=*/true);
  EXPECT_TRUE(Arena.isHot(P));
}

TEST(ColoredArena, GapPageMultipleDetection) {
  CacheParams P = smallParams();
  // Hot bytes/frame = 64*64 = 4096 = page size; cold = 12288 = 3 pages.
  ColoredArena Aligned(P);
  EXPECT_TRUE(Aligned.gapsArePageMultiple());

  P.HotSets = 48; // 3072 bytes: not a page multiple.
  ColoredArena Misaligned(P);
  EXPECT_FALSE(Misaligned.gapsArePageMultiple());
}

TEST(ColoredArena, ZeroHotSetsMeansContiguousCold) {
  CacheParams P = smallParams();
  P.HotSets = 0;
  ColoredArena Arena(P);
  // Cold region covers whole frames: back-to-back block-aligned
  // allocations are contiguous.
  auto *A = static_cast<char *>(Arena.allocateIn(64, /*Hot=*/false));
  auto *B = static_cast<char *>(Arena.allocateIn(64, /*Hot=*/false));
  EXPECT_EQ(B, A + 64);
}

TEST(ColoredArena, LargeAllocationSkipsToFreshFrame) {
  ColoredArena Arena(smallParams());
  Arena.allocateIn(4000, /*Hot=*/true); // Nearly fills frame 0's hot region.
  void *P = Arena.allocateIn(3000, /*Hot=*/true); // Doesn't fit: next frame.
  EXPECT_TRUE(Arena.isHot(P));
  EXPECT_GE(Arena.framesAllocated(), 2u);
}

// Property sweep: every combination keeps the hot/cold set partition.
struct ColorParam {
  uint64_t Sets;
  uint32_t Assoc;
  uint32_t Block;
  uint64_t Hot;
};

class ColoringSweep : public ::testing::TestWithParam<ColorParam> {};

TEST_P(ColoringSweep, PartitionInvariant) {
  auto [Sets, Assoc, Block, Hot] = GetParam();
  CacheParams P;
  P.CacheSets = Sets;
  P.Associativity = Assoc;
  P.BlockBytes = Block;
  P.HotSets = Hot;
  P.PageBytes = 4096;
  ASSERT_TRUE(P.isValid());
  ColoredArena Arena(P);
  Xoshiro256 Rng(Sets * 31 + Hot);
  for (int I = 0; I < 300; ++I) {
    size_t Bytes = 1 + Rng.nextBounded(Block * 2);
    if (Hot > 0 && Rng.nextBounded(2)) {
      size_t Capped = std::min<size_t>(Bytes, Hot * Block);
      EXPECT_LT(Arena.setOf(Arena.allocateIn(Capped, /*Hot=*/true)), Hot);
    } else if (Hot < Sets) {
      size_t Capped = std::min<size_t>(Bytes, (Sets - Hot) * Block);
      EXPECT_GE(Arena.setOf(Arena.allocateIn(Capped, /*Hot=*/false)), Hot);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, ColoringSweep,
    ::testing::Values(ColorParam{256, 1, 64, 128},
                      ColorParam{256, 1, 64, 32},
                      ColorParam{1024, 2, 128, 512},
                      ColorParam{512, 4, 32, 64},
                      ColorParam{16384, 1, 64, 8192},
                      ColorParam{256, 1, 64, 255},
                      ColorParam{128, 1, 64, 1}));
