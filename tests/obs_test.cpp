//===- tests/obs_test.cpp - Telemetry subsystem unit tests ------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the observability subsystem: the region registry and its
// allocator registration helpers, and the attribution sink's per-region
// and block-utilization accounting, event by event and live on a
// hierarchy (with and without prefetching) against its SimStats.
//
//===----------------------------------------------------------------------===//

#include "core/CacheParams.h"
#include "core/ColoredArena.h"
#include "heap/CcHeap.h"
#include "obs/Attribution.h"
#include "obs/Observer.h"
#include "obs/Region.h"
#include "sim/MemoryHierarchy.h"
#include "support/Align.h"

#include <gtest/gtest.h>

using namespace ccl;
using namespace ccl::obs;

namespace {

uint64_t vaddr(const void *Ptr) { return reinterpret_cast<uint64_t>(Ptr); }

} // namespace

TEST(RegionRegistry, DefinesDeduplicateByNameAndColor) {
  RegionRegistry Registry;
  uint32_t A = Registry.define("tree");
  EXPECT_NE(A, RegionRegistry::Unknown);
  EXPECT_EQ(Registry.define("tree"), A);
  uint32_t Hot = Registry.define(RegionInfo{"tree", "hot"});
  EXPECT_NE(Hot, A);
  EXPECT_EQ(Registry.define(RegionInfo{"tree", "hot"}), Hot);
  EXPECT_EQ(Registry.regionCount(), 3u); // (unknown) + tree + tree[hot]
  EXPECT_EQ(Registry.info(RegionRegistry::Unknown).Name, "(unknown)");
}

TEST(RegionRegistry, ResolvesRangeBoundaries) {
  RegionRegistry Registry;
  uint32_t A = Registry.define("a");
  uint32_t B = Registry.define(RegionInfo{"b", "hot"});
  Registry.addRange(uint64_t(0x2000), 0x100, B); // out-of-order insert
  Registry.addRange(uint64_t(0x1000), 0x100, A);
  EXPECT_EQ(Registry.rangeCount(), 2u);

  EXPECT_EQ(Registry.resolve(0x0FFF), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.resolve(0x1000), A);
  EXPECT_EQ(Registry.resolve(0x10FF), A);
  EXPECT_EQ(Registry.resolve(0x1100), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.resolve(0x1FFF), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.resolve(0x2080), B);
  EXPECT_EQ(Registry.resolve(0x2100), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.info(B).ColorClass, "hot");

  // Interleaved resolves must not be confused by the locality cache.
  EXPECT_EQ(Registry.resolve(0x1080), A);
  EXPECT_EQ(Registry.resolve(0x2080), B);
  EXPECT_EQ(Registry.resolve(0x1080), A);

  // Re-adding a range with the same base (allocator re-sync) is a no-op.
  Registry.addRange(uint64_t(0x1000), 0x100, A);
  EXPECT_EQ(Registry.rangeCount(), 2u);
}

TEST(RegionRegistry, RegistersColoredArenaHotAndCold) {
  CacheParams Params;
  Params.CacheSets = 64;
  Params.Associativity = 1;
  Params.BlockBytes = 64;
  Params.PageBytes = 4096;
  Params.HotSets = 32;
  ASSERT_TRUE(Params.isValid());
  ColoredArena Storage(Params);
  void *Hot = Storage.allocateIn(64, /*Hot=*/true);
  void *Cold = Storage.allocateIn(64, /*Hot=*/false);
  ASSERT_TRUE(Storage.isHot(Hot));
  ASSERT_FALSE(Storage.isHot(Cold));

  RegionRegistry Registry;
  uint32_t HotId = Registry.registerColoredArena(Storage, "ctree");
  EXPECT_EQ(Registry.resolve(vaddr(Hot)), HotId);
  EXPECT_EQ(Registry.info(HotId).Name, "ctree");
  EXPECT_EQ(Registry.info(HotId).ColorClass, "hot");

  uint32_t ColdId = Registry.resolve(vaddr(Cold));
  EXPECT_NE(ColdId, RegionRegistry::Unknown);
  EXPECT_NE(ColdId, HotId);
  EXPECT_EQ(Registry.info(ColdId).Name, "ctree");
  EXPECT_EQ(Registry.info(ColdId).ColorClass, "cold");
}

TEST(RegionRegistry, RegistersHeapPages) {
  heap::CcHeap Heap;
  void *P = Heap.allocate(40);
  void *Q = Heap.allocate(96);
  RegionRegistry Registry;
  uint32_t Id = Registry.registerHeap(Heap, "ccheap");
  EXPECT_EQ(Registry.resolve(vaddr(P)), Id);
  EXPECT_EQ(Registry.resolve(vaddr(Q)), Id);
}

TEST(Attribution, BlockUtilizationTracksResidencies) {
  RegionRegistry Registry;
  const uint64_t Base = 0x10000;
  uint32_t Region = Registry.define("synthetic");
  Registry.addRange(Base, 0x1000, Region);
  AttributionConfig Config;
  Config.L1BlockBytes = 16;
  Config.L1Sets = 4;
  Config.L2BlockBytes = 64;
  Config.L2Sets = 8;
  Config.HotSets = 2;
  AttributionSink Sink(Registry, Config);

  AccessEvent Fill; // memory fill opens a residency for mapped block 5
  Fill.VAddr = Base;
  Fill.Mapped = 5 * 64;
  Fill.Size = 8;
  Fill.Level = AccessLevel::Memory;
  Fill.Cycles = 70;
  Sink.onAccess(Fill);

  AccessEvent Touch; // second touch marks 4 more bytes at offset 16
  Touch.VAddr = Base + 16;
  Touch.Mapped = 5 * 64 + 16;
  Touch.Size = 4;
  Touch.Level = AccessLevel::L1Hit;
  Touch.Cycles = 1;
  Sink.onAccess(Touch);

  // A dirty eviction closes the residency: 12 of 64 bytes were touched.
  Sink.onEvict(EvictEvent{true, 5 * 64});
  {
    const RegionProfile &P = Sink.regions()[Region];
    EXPECT_EQ(P.BlocksFetched, 1u);
    EXPECT_EQ(P.BytesFetched, 64u);
    EXPECT_EQ(P.BytesUsed, 12u);
    EXPECT_EQ(P.BlocksEvicted, 1u);
    EXPECT_EQ(P.Writebacks, 1u);
    EXPECT_DOUBLE_EQ(P.blockUtilization(), 12.0 / 64.0);
  }
  EXPECT_EQ(Sink.l2SetMisses()[5], 1u);
  EXPECT_EQ(Sink.l2SetEvictions()[5], 1u);
  EXPECT_EQ(Sink.l1SetMisses()[(5 * 64 / 16) % 4], 1u);

  // Evicting a block this sink never saw filled only bumps the per-set
  // eviction histogram.
  Sink.onEvict(EvictEvent{false, 99 * 64});
  EXPECT_EQ(Sink.regions()[Region].BlocksFetched, 1u);
  EXPECT_EQ(Sink.l2SetEvictions()[99 % 8], 1u);

  // finalize() closes still-open residencies without counting evictions.
  AccessEvent Fill2;
  Fill2.VAddr = Base + 64;
  Fill2.Mapped = 6 * 64;
  Fill2.Size = 16;
  Fill2.Level = AccessLevel::PrefetchPartial;
  Fill2.Cycles = 30;
  Sink.onAccess(Fill2);
  Sink.finalize();
  const RegionProfile &P = Sink.regions()[Region];
  EXPECT_EQ(P.BlocksFetched, 2u);
  EXPECT_EQ(P.BytesUsed, 28u);
  EXPECT_EQ(P.BlocksEvicted, 1u);
  EXPECT_EQ(P.L2Misses, 2u);
  EXPECT_EQ(P.PrefetchPartialHits, 1u);
  EXPECT_EQ(P.references(), 3u);
  EXPECT_EQ(Sink.regions()[RegionRegistry::Unknown].references(), 0u);
}

TEST(Attribution, LiveSinkReconcilesWithSimStats) {
  // Plain, and with the next-line prefetcher on and software prefetches
  // issued, so fills that a prefetch hid in full or in part are charged
  // too. The prefetching pass ends with enough unconsumed next-line
  // prefetches to pass the in-flight sweep's 8,192-entry threshold.
  for (bool Prefetching : {false, true}) {
    SCOPED_TRACE(Prefetching ? "prefetching" : "plain");
    // Only addresses are simulated: the 4 MiB are never touched.
    constexpr uint64_t StorageBytes = 4 << 20;
    AlignedBuffer Storage = allocateAligned(1 << 20, StorageBytes);
    char *Buffer = Storage.get();
    RegionRegistry Registry;
    uint32_t Region =
        Registry.registerRange(Buffer, StorageBytes, {"buffer", {}});

    sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();
    if (Prefetching)
      Config.Prefetch.NextLineDegree = 1;
    sim::MemoryHierarchy M(Config);
    AttributionSink Sink(Registry, AttributionConfig::fromHierarchy(Config));
    M.attachObserver(&Sink);

    // Strided reads and writes inside the region, plus a handful of
    // accesses to an unregistered address range.
    for (uint64_t Off = 0; Off + 8 <= 16384; Off += 16) {
      if (Prefetching && Off % 128 == 0)
        M.prefetch(vaddr(Buffer + (Off + 256) % 16384));
      M.read(vaddr(Buffer + Off), 8);
    }
    for (uint64_t Off = 0; Off + 8 <= 16384; Off += 64)
      M.write(vaddr(Buffer + Off), 8);
    // Two passes of reads of every fifth block from 1 MiB on. Each
    // misses and queues its next block, which no read consumes, so the
    // in-flight table fills until a miss sweeps it. The sweep retires
    // the block queued 3,277 reads earlier, 16,385 blocks back, into the
    // 1 MiB direct-mapped L2 set of the block that miss just filled; the
    // second pass fills that block again.
    const uint64_t SweepReads = Prefetching ? 9000 : 0;
    for (int Pass = 0; Pass < 2; ++Pass)
      for (uint64_t I = 0; I < SweepReads; ++I)
        M.read(vaddr(Buffer + (1 << 20) + I * 5 * 64), 8);
    const uint64_t Outside = 0x7fee00000000ULL;
    for (unsigned I = 0; I < 32; ++I)
      M.read(Outside + I * 256, 4);
    Sink.finalize();

    const sim::SimStats &S = M.stats();
    ASSERT_TRUE(S.isConsistent());
    if (Prefetching) {
      EXPECT_GT(S.SwPrefetches, 0u);
      EXPECT_GT(S.HwPrefetches, 0u);
      EXPECT_GT(S.PrefetchFullHits, 0u);
      EXPECT_GT(S.PrefetchPartialHits, 0u);
    }
    RegionProfile Total = Sink.totals();
    EXPECT_EQ(Sink.accessEvents(), S.memoryReferences());
    EXPECT_EQ(Total.Reads, S.Reads);
    EXPECT_EQ(Total.Writes, S.Writes);
    EXPECT_EQ(Total.L1Hits, S.L1Hits);
    EXPECT_EQ(Total.L1Misses, S.L1Misses);
    EXPECT_EQ(Total.L2Hits, S.L2Hits);
    EXPECT_EQ(Total.L2Misses, S.L2Misses);
    EXPECT_EQ(Total.TlbMisses, S.TlbMisses);
    EXPECT_EQ(Total.PrefetchFullHits, S.PrefetchFullHits);
    EXPECT_EQ(Total.PrefetchPartialHits, S.PrefetchPartialHits);
    // Access events carry every cycle but the prefetch issue cost.
    EXPECT_EQ(Total.Cycles + S.PrefetchIssueCycles, M.now());

    // Region split: everything except the 32 outside reads belongs to
    // the registered buffer, and the byte counts match the access
    // pattern.
    const RegionProfile &Mine = Sink.regions()[Region];
    const RegionProfile &Unknown = Sink.regions()[RegionRegistry::Unknown];
    EXPECT_EQ(Unknown.references(), 32u);
    EXPECT_EQ(Mine.references(), S.memoryReferences() - 32);
    EXPECT_EQ(Mine.BytesAccessed, 1024u * 8 + 256u * 8 + 2 * SweepReads * 8);

    // Every fetched block was closed exactly once, by an eviction event
    // or by finalize().
    EXPECT_EQ(Total.BlocksFetched, S.L2Misses + S.PrefetchFullHits);
    EXPECT_EQ(Total.BytesFetched, Total.BlocksFetched * Config.L2.BlockBytes);
    EXPECT_GT(Total.BytesUsed, 0u);
    EXPECT_LE(Total.BytesUsed, Total.BytesFetched);

    // Histogram mass equals the corresponding miss counters.
    uint64_t L1Mass = 0;
    for (uint64_t Count : Sink.l1SetMisses())
      L1Mass += Count;
    EXPECT_EQ(L1Mass, S.L1Misses);
    uint64_t L2Mass = 0;
    for (uint64_t Count : Sink.l2SetMisses())
      L2Mass += Count;
    EXPECT_EQ(L2Mass, S.L2Misses + S.PrefetchFullHits);
  }
}
