//===- tests/hierarchy_test.cpp - Memory hierarchy unit tests ---------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "sim/MemoryHierarchy.h"

#include "sim/AccessPolicy.h"

#include <gtest/gtest.h>

#include <vector>

using namespace ccl;
using namespace ccl::sim;

namespace {

/// Tiny hierarchy with TLB disabled so latencies are exact:
/// L1: 1KB direct-mapped 64B (hit 1); L2: 4KB 2-way 64B (hit 6);
/// memory 50 cycles.
HierarchyConfig tiny() {
  HierarchyConfig Config;
  Config.L1 = {1024, 64, 1, 1};
  Config.L2 = {4096, 64, 2, 6};
  Config.MemoryLatency = 50;
  Config.Tlb.Enabled = false;
  return Config;
}

} // namespace

TEST(Hierarchy, ColdMissCostsFullLatency) {
  MemoryHierarchy M(tiny());
  M.read(0x10000, 4);
  EXPECT_EQ(M.stats().BusyCycles, 1u);
  EXPECT_EQ(M.stats().L1StallCycles, 6u);
  EXPECT_EQ(M.stats().L2StallCycles, 50u);
  EXPECT_EQ(M.now(), 57u);
  EXPECT_EQ(M.stats().L1Misses, 1u);
  EXPECT_EQ(M.stats().L2Misses, 1u);
}

TEST(Hierarchy, SecondAccessIsL1Hit) {
  MemoryHierarchy M(tiny());
  M.read(0x10000, 4);
  uint64_t After = M.now();
  M.read(0x10004, 4); // Same L1 block.
  EXPECT_EQ(M.now(), After + 1);
  EXPECT_EQ(M.stats().L1Hits, 1u);
}

TEST(Hierarchy, L1ConflictButL2HitCostsL2Latency) {
  MemoryHierarchy M(tiny());
  // L1 has 16 sets of 64B; 0x0 and 0x400 (1KB apart) conflict in L1 but
  // land in different L2 sets? 0x0 and 0x400: L2 has 32 sets -> block 0
  // and block 16: different sets; both stay in L2.
  M.read(0x0, 4);
  M.read(0x400, 4);
  uint64_t Before = M.now();
  M.read(0x0, 4); // L1 miss (evicted), L2 hit.
  EXPECT_EQ(M.now(), Before + 1 + 6);
  EXPECT_EQ(M.stats().L2Hits, 1u);
}

TEST(Hierarchy, TickAccumulatesBusy) {
  MemoryHierarchy M(tiny());
  M.tick(100);
  EXPECT_EQ(M.stats().BusyCycles, 100u);
  EXPECT_EQ(M.now(), 100u);
}

TEST(Hierarchy, RangeAccessTouchesEveryBlock) {
  MemoryHierarchy M(tiny());
  M.read(0x0, 200); // Spans blocks 0..3 (64B blocks).
  EXPECT_EQ(M.stats().Reads, 4u);
}

TEST(Hierarchy, RangeAccessRespectsOffset) {
  MemoryHierarchy M(tiny());
  M.read(60, 8); // Crosses block 0 into block 1.
  EXPECT_EQ(M.stats().Reads, 2u);
}

TEST(Hierarchy, ZeroSizeReadsOneBlock) {
  MemoryHierarchy M(tiny());
  M.read(0x100, 0);
  EXPECT_EQ(M.stats().Reads, 1u);
}

TEST(Hierarchy, WritesAreCounted) {
  MemoryHierarchy M(tiny());
  M.write(0x0, 8);
  EXPECT_EQ(M.stats().Writes, 1u);
  EXPECT_EQ(M.stats().Reads, 0u);
}

TEST(Hierarchy, SwPrefetchHidesLatencyFully) {
  MemoryHierarchy M(tiny());
  M.prefetch(0x20000);
  EXPECT_EQ(M.stats().SwPrefetches, 1u);
  M.tick(100); // Enough time for the fill to complete (50 cycles).
  uint64_t Before = M.now();
  M.read(0x20000, 4);
  // Full hit in L2 via completed prefetch: 1 (L1 busy) + 6 (L1 miss).
  EXPECT_EQ(M.now(), Before + 7);
  EXPECT_EQ(M.stats().PrefetchFullHits, 1u);
  EXPECT_EQ(M.stats().L2Misses, 0u);
}

TEST(Hierarchy, SwPrefetchHidesLatencyPartially) {
  MemoryHierarchy M(tiny());
  M.prefetch(0x20000);
  M.tick(20); // Fill needs 50 cycles; only 20 elapsed.
  uint64_t Before = M.now();
  M.read(0x20000, 4);
  // Residual = 50 - 20 - 1(prefetch issue already elapsed)... The issue
  // cost advanced the clock by PrefetchIssueCost before the tick, so
  // residual = (issue+50) - (issue+20) - 7? Just bound it:
  uint64_t Cost = M.now() - Before;
  EXPECT_GT(Cost, 7u);       // Not free.
  EXPECT_LT(Cost, 1u + 6 + 50); // Cheaper than a full miss.
  EXPECT_EQ(M.stats().PrefetchPartialHits, 1u);
}

TEST(Hierarchy, PrefetchOfResidentBlockIsCheap) {
  MemoryHierarchy M(tiny());
  M.read(0x0, 4);
  uint64_t Before = M.now();
  M.prefetch(0x0);
  EXPECT_EQ(M.now(), Before + M.config().PrefetchIssueCost);
}

TEST(Hierarchy, HwPrefetcherFetchesNextLines) {
  HierarchyConfig Config = tiny();
  Config.Prefetch.NextLineDegree = 2;
  MemoryHierarchy M(Config);
  M.read(0x0, 4); // Miss: schedules blocks 1 and 2.
  EXPECT_EQ(M.stats().HwPrefetches, 2u);
  M.tick(100);
  uint64_t Before = M.now();
  M.read(0x40, 4); // Next line: prefetched.
  EXPECT_EQ(M.now(), Before + 7);
  EXPECT_EQ(M.stats().PrefetchFullHits, 1u);
}

TEST(Hierarchy, HwPrefetcherOffByDefault) {
  MemoryHierarchy M(tiny());
  M.read(0x0, 4);
  EXPECT_EQ(M.stats().HwPrefetches, 0u);
}

TEST(Hierarchy, StatsConsistency) {
  MemoryHierarchy M(tiny());
  for (uint64_t I = 0; I < 1000; ++I)
    M.read(I * 37, 4);
  const SimStats &S = M.stats();
  EXPECT_EQ(S.L1Hits + S.L1Misses, S.Reads + S.Writes);
  EXPECT_EQ(S.L2Hits + S.L2Misses, S.L1Misses);
  EXPECT_EQ(S.totalCycles(), M.now());
}

TEST(Hierarchy, TlbMissAddsStall) {
  HierarchyConfig Config = tiny();
  Config.Tlb = {true, 4, 4096, 30};
  MemoryHierarchy M(Config);
  M.read(0x0, 4);
  EXPECT_EQ(M.stats().TlbMisses, 1u);
  EXPECT_EQ(M.stats().TlbStallCycles, 30u);
  M.read(0x8, 4); // Same page: TLB hit.
  EXPECT_EQ(M.stats().TlbMisses, 1u);
}

TEST(Hierarchy, ResetClearsState) {
  MemoryHierarchy M(tiny());
  M.read(0x0, 4);
  M.prefetch(0x1000);
  M.reset();
  EXPECT_EQ(M.now(), 0u);
  EXPECT_EQ(M.stats().Reads, 0u);
  M.read(0x0, 4); // Cold again.
  EXPECT_EQ(M.stats().L2Misses, 1u);
}

TEST(Hierarchy, CyclesPerReference) {
  MemoryHierarchy M(tiny());
  M.read(0x0, 4);
  M.read(0x0, 4);
  // A cold miss (57 cycles) then an L1 hit (1) over two references.
  EXPECT_EQ(M.stats().totalCycles(), 58u);
  EXPECT_EQ(M.stats().memoryReferences(), 2u);
}

TEST(Hierarchy, WritebackPropagation) {
  MemoryHierarchy M(tiny());
  // Dirty a block in L2 (via write), then evict it with conflicting
  // blocks in the same L2 set (2-way: needs 2 more).
  M.write(0x0, 4);
  M.read(0x1000, 4);  // Same L2 set (4KB apart / 64B = 64 blocks = 2 sets
                      // wrap: block 64 % 32 sets = set 0).
  M.read(0x2000, 4);  // Third block in set 0: evicts LRU (dirty 0x0).
  EXPECT_GE(M.stats().Writebacks, 1u);
}

TEST(Hierarchy, TranslationFollowsFirstTouchAcrossAliasedUnits) {
  // On E5000 the translation unit is the 1 MiB L2, and host units 16
  // apart share one slot of the 16-entry translation memo. Each unit
  // must still get its own mapped unit, numbered in first-touch order.
  struct MappedUnits : obs::SimObserver {
    std::vector<uint64_t> Units;
    void onAccess(const obs::AccessEvent &Event) override {
      Units.push_back(Event.Mapped >> 20);
    }
  };
  MemoryHierarchy M(HierarchyConfig::ultraSparcE5000());
  MappedUnits Seen;
  M.attachObserver(&Seen);
  const uint64_t U = 0x7f3;
  for (uint64_t Unit : {U, U + 16, U, U + 32, U + 16})
    M.read((Unit << 20) + 0x140, 8);
  EXPECT_EQ(Seen.Units, (std::vector<uint64_t>{1, 2, 1, 3, 2}));
}

TEST(AccessPolicy, NativeLoadStoreWork) {
  NativeAccess A;
  uint64_t X = 5;
  EXPECT_EQ(A.load(&X), 5u);
  A.store(&X, uint64_t{9});
  EXPECT_EQ(X, 9u);
  A.tick(100); // No-op.
  A.prefetch(&X);
}

TEST(AccessPolicy, SimLoadDrivesHierarchy) {
  MemoryHierarchy M(tiny());
  SimAccess A(M);
  uint64_t X = 7;
  EXPECT_EQ(A.load(&X), 7u);
  EXPECT_EQ(M.stats().Reads, 1u);
  A.store(&X, uint64_t{8});
  EXPECT_EQ(X, 8u);
  EXPECT_EQ(M.stats().Writes, 1u);
  A.touch(&X, sizeof(X));
  EXPECT_EQ(M.stats().Reads, 2u);
  A.prefetch(&X);
  EXPECT_EQ(M.stats().SwPrefetches, 1u);
}
