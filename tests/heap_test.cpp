//===- tests/heap_test.cpp - CcHeap unit tests --------------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "heap/CcHeap.h"

#include "core/CcAllocator.h"
#include "support/Align.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace ccl;
using namespace ccl::heap;

TEST(HeapStrategyName, Names) {
  EXPECT_STREQ(strategyName(CcStrategy::Closest), "closest");
  EXPECT_STREQ(strategyName(CcStrategy::NewBlock), "new-block");
  EXPECT_STREQ(strategyName(CcStrategy::FirstFit), "first-fit");
}

TEST(CcHeap, PlainAllocationBasics) {
  CcHeap Heap;
  void *P = Heap.allocate(24);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(Heap.owns(P));
  EXPECT_TRUE(isAligned(addrOf(P), 8));
  EXPECT_EQ(Heap.sizeOf(P), 24u);
  std::memset(P, 0xAB, 24);
}

TEST(CcHeap, SizeRoundsUpToEight) {
  CcHeap Heap;
  void *P = Heap.allocate(3);
  EXPECT_EQ(Heap.sizeOf(P), 8u);
}

TEST(CcHeap, SequentialAllocationsClusterInBlocks) {
  CcHeap Heap;
  // 24B payload + 8B header = 32: two per 64-byte block.
  void *A = Heap.allocate(24);
  void *B = Heap.allocate(24);
  void *C = Heap.allocate(24);
  EXPECT_EQ(Heap.blockOf(A), Heap.blockOf(B));
  EXPECT_NE(Heap.blockOf(A), Heap.blockOf(C));
  EXPECT_EQ(Heap.pageOf(A), Heap.pageOf(C));
}

TEST(CcHeap, OwnsRejectsForeignPointers) {
  CcHeap Heap;
  int Local = 0;
  EXPECT_FALSE(Heap.owns(&Local));
  EXPECT_FALSE(Heap.owns(nullptr));
  EXPECT_EQ(Heap.pageOf(&Local), 0u);
}

TEST(CcHeap, DeallocateAndReuseAddress) {
  CcHeap Heap;
  void *P = Heap.allocate(40);
  Heap.deallocate(P); // Sole chunk in its block: block reclaimed.
  EXPECT_EQ(Heap.stats().BlocksReclaimed, 1u);
  void *Q = Heap.allocate(40);
  EXPECT_EQ(P, Q); // Reclaimed block is re-carved from its start.
}

TEST(CcHeap, FreeListRecyclesWhenBlockStillLive) {
  CcHeap Heap;
  void *A = Heap.allocate(24); // Two 32-byte chunks share block 0.
  void *B = Heap.allocate(24);
  Heap.deallocate(A); // Partner B is live: A goes to the free list.
  EXPECT_EQ(Heap.stats().BlocksReclaimed, 0u);
  void *C = Heap.allocate(24);
  EXPECT_EQ(C, A); // LIFO free-list reuse.
  EXPECT_EQ(Heap.stats().FreeListReuses, 1u);
  (void)B;
}

TEST(CcHeap, BlockReclamationInvalidatesFreeList) {
  CcHeap Heap;
  void *A = Heap.allocate(24);
  void *B = Heap.allocate(24);
  Heap.deallocate(A); // To free list (B live).
  Heap.deallocate(B); // Block empties: reclaimed; A's entry is stale.
  EXPECT_EQ(Heap.stats().BlocksReclaimed, 1u);
  // Both addresses must be reusable exactly once (no double handout).
  void *C = Heap.allocate(24);
  void *D = Heap.allocate(24);
  EXPECT_NE(C, D);
  std::memset(C, 1, 24);
  std::memset(D, 2, 24);
}

TEST(CcHeap, ReclaimedBlockAcceptsCoLocation) {
  CcHeap Heap;
  void *Near = Heap.allocate(48); // Fills most of block 0.
  void *Filler = Heap.allocate(48); // Block 1.
  Heap.deallocate(Filler); // Block 1 reclaimed.
  // Near's block is full; NewBlock must find the reclaimed block 1.
  void *P = Heap.allocateNear(24, Near, CcStrategy::NewBlock);
  EXPECT_EQ(Heap.pageOf(P), Heap.pageOf(Near));
  EXPECT_TRUE(isAligned(addrOf(P) - 8, Heap.config().BlockBytes));
}

TEST(CcHeap, FreeListKeyedByRoundedSize) {
  CcHeap Heap;
  void *Keep = Heap.allocate(33); // Rounds to 40; shares block 0? 48B
                                  // chunk: block 0 has 16B left.
  void *P = Heap.allocate(33);    // Block 1.
  void *Partner = Heap.allocate(8); // Lands in block 1's tail.
  Heap.deallocate(P);               // Partner live: P hits free list.
  void *Q = Heap.allocate(40);      // Same rounded class.
  EXPECT_EQ(P, Q);
  EXPECT_EQ(Heap.stats().FreeListReuses, 1u);
  (void)Keep;
  (void)Partner;
}

TEST(CcHeap, NearAllocationSameBlock) {
  CcHeap Heap;
  void *Near = Heap.allocate(16);
  void *P = Heap.allocateNear(16, Near, CcStrategy::NewBlock);
  EXPECT_EQ(Heap.blockOf(P), Heap.blockOf(Near));
  EXPECT_EQ(Heap.stats().SameBlock, 1u);
}

TEST(CcHeap, NearAllocationNullHintDegradesToPlain) {
  CcHeap Heap;
  void *P = Heap.allocateNear(16, nullptr, CcStrategy::NewBlock);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(Heap.stats().NearCalls, 0u);
}

TEST(CcHeap, NearAllocationForeignHintDegradesToPlain) {
  CcHeap Heap;
  int Local = 0;
  void *P = Heap.allocateNear(16, &Local, CcStrategy::Closest);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(Heap.owns(P));
  EXPECT_EQ(Heap.stats().NearCalls, 0u);
}

TEST(CcHeap, NewBlockStrategyPicksEmptyBlock) {
  CcHeap Heap;
  void *Near = Heap.allocate(48); // 48+8=56: nearly fills block 0.
  // 24+8 = 32 does not fit in the remaining 8 bytes of Near's block.
  void *P = Heap.allocateNear(24, Near, CcStrategy::NewBlock);
  EXPECT_NE(Heap.blockOf(P), Heap.blockOf(Near));
  EXPECT_EQ(Heap.pageOf(P), Heap.pageOf(Near));
  EXPECT_EQ(Heap.stats().SamePage, 1u);
  // The chosen block must have been empty: the chunk starts at offset 0.
  EXPECT_TRUE(isAligned(addrOf(P) - 8, Heap.config().BlockBytes));
}

TEST(CcHeap, ClosestStrategyPicksNearestBlock) {
  CcHeap Heap;
  // Fill blocks 0,1,2 fully, leave block 3 partially filled; a closest
  // allocation near block 1 must land in block 3 only after failing 0/2.
  void *B0 = Heap.allocate(48);
  void *B1 = Heap.allocate(48);
  void *B2 = Heap.allocate(48);
  (void)B0;
  (void)B2;
  // Next plain allocation opens block 3.
  void *B3 = Heap.allocate(8);
  // Closest to B1: blocks 0 and 2 are full (56/64 used; 24+8 doesn't
  // fit), block 3 has room.
  void *P = Heap.allocateNear(24, B1, CcStrategy::Closest);
  EXPECT_EQ(Heap.blockOf(P), Heap.blockOf(B3));
}

TEST(CcHeap, FirstFitStrategyScansFromPageStart) {
  CcHeap Heap;
  void *B0 = Heap.allocate(16); // Block 0: 24/64 used, room remains.
  void *B1 = Heap.allocate(48); // Block 1: nearly full.
  void *B2 = Heap.allocate(48); // Block 2: nearly full — hint here.
  (void)B1;
  // First-fit near B2: block 2 full for 24B, block 0 has room.
  void *P = Heap.allocateNear(24, B2, CcStrategy::FirstFit);
  EXPECT_EQ(Heap.blockOf(P), Heap.blockOf(B0));
}

TEST(CcHeap, SpillsToOverflowPageWhenPageFull) {
  HeapConfig Config;
  Config.PageBytes = 4096;
  Config.BlockBytes = 64;
  CcHeap Heap(Config);
  void *Near = Heap.allocate(48);
  // Fill the whole page: 64 blocks, each takes one 48+8=56B chunk.
  for (int I = 0; I < 63; ++I)
    Heap.allocate(48);
  void *P = Heap.allocateNear(48, Near, CcStrategy::NewBlock);
  EXPECT_NE(Heap.pageOf(P), Heap.pageOf(Near));
  EXPECT_EQ(Heap.stats().PageSpills, 1u);
}

TEST(CcHeap, LargeAllocationSpansBlocks) {
  CcHeap Heap;
  void *P = Heap.allocate(200); // > 64-byte block.
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(Heap.owns(P));
  EXPECT_EQ(Heap.sizeOf(P), 200u);
  std::memset(P, 0x5A, 200);
}

TEST(CcHeap, LargeAllocationsDoNotOverlapSmall) {
  CcHeap Heap;
  std::vector<std::pair<uint64_t, uint64_t>> Ranges;
  Xoshiro256 Rng(21);
  for (int I = 0; I < 400; ++I) {
    size_t Bytes = 1 + Rng.nextBounded(300);
    auto *P = static_cast<char *>(Heap.allocate(Bytes));
    std::memset(P, int(I), Bytes);
    Ranges.push_back({addrOf(P), addrOf(P) + Bytes});
  }
  std::sort(Ranges.begin(), Ranges.end());
  for (size_t I = 1; I < Ranges.size(); ++I)
    EXPECT_LE(Ranges[I - 1].second, Ranges[I].first);
}

TEST(CcHeap, NearAllocationsDoNotOverlap) {
  CcHeap Heap;
  Xoshiro256 Rng(31);
  std::vector<std::pair<uint64_t, uint64_t>> Ranges;
  void *Near = Heap.allocate(16);
  Ranges.push_back({addrOf(Near), addrOf(Near) + 16});
  for (int I = 0; I < 500; ++I) {
    size_t Bytes = 1 + Rng.nextBounded(48);
    CcStrategy S = static_cast<CcStrategy>(Rng.nextBounded(3));
    auto *P = static_cast<char *>(Heap.allocateNear(Bytes, Near, S));
    std::memset(P, int(I), Bytes);
    Ranges.push_back({addrOf(P), addrOf(P) + Bytes});
    if (Rng.nextBounded(4) == 0)
      Near = P; // Chase the hint around.
  }
  std::sort(Ranges.begin(), Ranges.end());
  for (size_t I = 1; I < Ranges.size(); ++I)
    EXPECT_LE(Ranges[I - 1].second, Ranges[I].first);
}

TEST(CcHeap, StatsTrackCalls) {
  CcHeap Heap;
  void *A = Heap.allocate(16);
  Heap.allocateNear(16, A, CcStrategy::NewBlock);
  Heap.deallocate(A);
  const HeapStats &S = Heap.stats();
  EXPECT_EQ(S.AllocCalls, 2u);
  EXPECT_EQ(S.NearCalls, 1u);
  EXPECT_EQ(S.FreeCalls, 1u);
  EXPECT_GE(S.PagesAllocated, 1u);
  EXPECT_GT(S.BytesLive, 0u);
}

TEST(CcHeap, FootprintIsPageGranular) {
  CcHeap Heap;
  Heap.allocate(16);
  EXPECT_EQ(Heap.footprintBytes(),
            Heap.stats().PagesAllocated * Heap.config().PageBytes);
}

TEST(CcHeap, BytesLiveDropsOnFree) {
  CcHeap Heap;
  void *P = Heap.allocate(100);
  uint64_t Live = Heap.stats().BytesLive;
  Heap.deallocate(P);
  EXPECT_LT(Heap.stats().BytesLive, Live);
}

TEST(CcHeap, SameBlockRateComputed) {
  CcHeap Heap;
  void *Near = Heap.allocate(8);
  for (int I = 0; I < 3; ++I)
    Heap.allocateNear(8, Near, CcStrategy::NewBlock);
  EXPECT_GT(Heap.stats().sameBlockRate(), 0.0);
  EXPECT_LE(Heap.stats().sameBlockRate(), 1.0);
}

TEST(CcHeap, DeallocateNullIsNoop) {
  CcHeap Heap;
  Heap.deallocate(nullptr);
  EXPECT_EQ(Heap.stats().FreeCalls, 0u);
}

TEST(CcHeapDeathTest, DoubleFreeAsserts) {
  CcHeap Heap;
  void *P = Heap.allocate(16);
  Heap.deallocate(P);
  EXPECT_DEATH(Heap.deallocate(P), "double free|bad chunk");
}

TEST(CcHeap, FuzzAllocFreeKeepsIntegrity) {
  CcHeap Heap;
  Xoshiro256 Rng(77);
  std::map<void *, std::pair<size_t, char>> Live;
  for (int Step = 0; Step < 4000; ++Step) {
    bool DoFree = !Live.empty() && Rng.nextBounded(3) == 0;
    if (DoFree) {
      auto It = Live.begin();
      std::advance(It, Rng.nextBounded(std::min<size_t>(Live.size(), 16)));
      auto [Ptr, Info] = *It;
      auto *Bytes = static_cast<unsigned char *>(Ptr);
      for (size_t I = 0; I < Info.first; ++I)
        ASSERT_EQ(Bytes[I], static_cast<unsigned char>(Info.second));
      Heap.deallocate(Ptr);
      Live.erase(It);
      continue;
    }
    size_t Bytes = 1 + Rng.nextBounded(120);
    void *P;
    if (!Live.empty() && Rng.nextBounded(2) == 0) {
      CcStrategy S = static_cast<CcStrategy>(Rng.nextBounded(3));
      P = Heap.allocateNear(Bytes, Live.begin()->first, S);
    } else {
      P = Heap.allocate(Bytes);
    }
    char Fill = static_cast<char>(Rng.nextBounded(256));
    std::memset(P, Fill, Bytes);
    ASSERT_FALSE(Live.count(P)) << "allocator returned a live chunk";
    Live[P] = {Bytes, Fill};
  }
  // Verify every surviving chunk one final time.
  for (auto &[Ptr, Info] : Live) {
    auto *Bytes = static_cast<unsigned char *>(Ptr);
    for (size_t I = 0; I < Info.first; ++I)
      ASSERT_EQ(Bytes[I], static_cast<unsigned char>(Info.second));
  }
}

//===----------------------------------------------------------------------===//
// Placement parity: bitmap/flat-map CcHeap vs the seed implementation
//===----------------------------------------------------------------------===//

namespace seedref {

/// Verbatim port of the pre-bitmap CcHeap: per-slot occupancy loops,
/// std::unordered_map page and free-list tables. The parity tests drive
/// this and the production heap with identical randomized sequences and
/// require identical placements ((page ordinal, offset) per pointer) and
/// identical HeapStats — the bitmaps and flat maps must change the
/// speed, never the decisions.
class SeedHeap {
public:
  explicit SeedHeap(HeapConfig ConfigIn = HeapConfig()) : Config(ConfigIn) {
    BlocksPerPage = Config.PageBytes / Config.BlockBytes;
  }
  ~SeedHeap() {
    for (void *Slab : Slabs)
      std::free(Slab);
  }
  SeedHeap(const SeedHeap &) = delete;
  SeedHeap &operator=(const SeedHeap &) = delete;

  void *allocate(size_t Size) {
    ++Stats.AllocCalls;
    size_t Rounded = roundSize(Size);
    Stats.BytesRequested += Size;
    if (void *Reused = popFreeList(Rounded, 0))
      return Reused;
    if (HeaderBytes + Rounded > Config.BlockBytes)
      return allocateLarge(Rounded);
    return bumpAllocate(PlainCursor, Rounded);
  }

  void *allocateNear(size_t Size, const void *Near, CcStrategy Strategy) {
    PageInfo *Page = Near ? findPage(Near) : nullptr;
    if (!Page)
      return allocate(Size);
    ++Stats.AllocCalls;
    ++Stats.NearCalls;
    size_t Rounded = roundSize(Size);
    Stats.BytesRequested += Size;
    if (HeaderBytes + Rounded > Config.BlockBytes)
      return allocateLarge(Rounded);
    size_t Need = HeaderBytes + Rounded;
    uint32_t NearBlock = static_cast<uint32_t>(
        (addrOf(Near) - addrOf(Page->Base)) / Config.BlockBytes);
    if (Page->Used[NearBlock] + Need <= Config.BlockBytes) {
      ++Stats.SameBlock;
      return carve(*Page, NearBlock, Rounded);
    }
    int64_t BlockIdx = findBlock(*Page, NearBlock, Rounded, Strategy);
    if (BlockIdx >= 0) {
      ++Stats.SamePage;
      return carve(*Page, static_cast<uint32_t>(BlockIdx), Rounded);
    }
    if (void *Reused = popFreeList(Rounded, addrOf(Page->Base))) {
      ++Stats.SamePage;
      return Reused;
    }
    ++Stats.PageSpills;
    while (!FreeBlockPool.empty()) {
      auto [PoolPage, PoolIdx] = FreeBlockPool.back();
      FreeBlockPool.pop_back();
      if (PoolPage->Used[PoolIdx] == 0)
        return carve(*PoolPage, PoolIdx, Rounded);
    }
    return bumpAllocate(SpillCursor, Rounded, /*EmptyBlockOnly=*/true);
  }

  void deallocate(void *Ptr) {
    if (!Ptr)
      return;
    auto *Header = reinterpret_cast<ChunkHeader *>(
        static_cast<char *>(Ptr) - HeaderBytes);
    PageInfo *Page = findPage(Ptr);
    size_t Need = HeaderBytes + Header->Size;
    uint64_t Offset = addrOf(Ptr) - HeaderBytes - addrOf(Page->Base);
    uint32_t BlockIdx = static_cast<uint32_t>(Offset / Config.BlockBytes);
    Header->Magic = FreedMagic;
    Stats.BytesLive -= Need;
    ++Stats.FreeCalls;
    Page->Live[BlockIdx] -= 1;
    if (Page->Live[BlockIdx] == 0) {
      uint32_t BlocksSpanned = static_cast<uint32_t>(
          (Need + Config.BlockBytes - 1) / Config.BlockBytes);
      for (uint32_t Idx = BlockIdx; Idx < BlockIdx + BlocksSpanned; ++Idx) {
        Page->Used[Idx] = 0;
        Page->Epoch[Idx] += 1;
        FreeBlockPool.push_back({Page, Idx});
      }
      Page->ScanHint = std::min(Page->ScanHint, BlockIdx);
      ++Stats.BlocksReclaimed;
      return;
    }
    FreeLists[Header->Size].push_back({Ptr, Page->Epoch[BlockIdx]});
  }

  uint64_t pageOf(const void *Ptr) const {
    const PageInfo *Page = findPage(Ptr);
    return Page ? addrOf(Page->Base) : 0;
  }

  const HeapStats &stats() const { return Stats; }

private:
  struct PageInfo {
    char *Base = nullptr;
    std::vector<uint16_t> Used;
    std::vector<uint16_t> Live;
    std::vector<uint32_t> Epoch;
    uint32_t ScanHint = 0;
  };
  struct FreeChunk {
    void *Payload;
    uint32_t Epoch;
  };
  struct ChunkHeader {
    uint32_t Size;
    uint32_t Magic;
  };
  static constexpr uint32_t HeaderMagic = 0xCCA110C8u;
  static constexpr uint32_t FreedMagic = 0xDEADF9EEu;
  static constexpr size_t HeaderBytes = sizeof(ChunkHeader);
  static constexpr size_t SlabBytes = 1 << 20;

  size_t roundSize(size_t Size) const {
    if (Size == 0)
      Size = 1;
    return alignUp(Size, 8);
  }

  PageInfo *newPage() {
    if (!SlabCursor || SlabCursor + Config.PageBytes > SlabEnd) {
      void *Slab = std::aligned_alloc(SlabBytes, SlabBytes);
      if (!Slab)
        std::abort();
      Slabs.push_back(Slab);
      SlabCursor = static_cast<char *>(Slab);
      SlabEnd = SlabCursor + SlabBytes;
    }
    char *Memory = SlabCursor;
    SlabCursor += Config.PageBytes;
    auto Page = std::make_unique<PageInfo>();
    Page->Base = Memory;
    Page->Used.assign(BlocksPerPage, 0);
    Page->Live.assign(BlocksPerPage, 0);
    Page->Epoch.assign(BlocksPerPage, 0);
    PageInfo *Result = Page.get();
    Pages.emplace(addrOf(Memory), std::move(Page));
    ++Stats.PagesAllocated;
    return Result;
  }

  PageInfo *findPage(const void *Ptr) const {
    uint64_t Base = alignDown(addrOf(Ptr), Config.PageBytes);
    auto It = Pages.find(Base);
    return It == Pages.end() ? nullptr : It->second.get();
  }

  void *carve(PageInfo &Page, uint32_t BlockIdx, size_t Rounded) {
    size_t Need = HeaderBytes + Rounded;
    char *Chunk = Page.Base + size_t(BlockIdx) * Config.BlockBytes +
                  Page.Used[BlockIdx];
    Page.Used[BlockIdx] += static_cast<uint16_t>(Need);
    Page.Live[BlockIdx] += 1;
    auto *Header = reinterpret_cast<ChunkHeader *>(Chunk);
    Header->Size = static_cast<uint32_t>(Rounded);
    Header->Magic = HeaderMagic;
    Stats.BytesLive += Need;
    return Chunk + HeaderBytes;
  }

  void *bumpAllocate(PageInfo *&Cursor, size_t Rounded,
                     bool EmptyBlockOnly = false) {
    size_t Need = HeaderBytes + Rounded;
    if (!Cursor)
      Cursor = newPage();
    for (;;) {
      uint32_t Idx = Cursor->ScanHint;
      while (Idx < BlocksPerPage &&
             (EmptyBlockOnly
                  ? Cursor->Used[Idx] != 0
                  : Cursor->Used[Idx] + Need > Config.BlockBytes))
        ++Idx;
      if (Idx < BlocksPerPage) {
        Cursor->ScanHint = Idx;
        return carve(*Cursor, Idx, Rounded);
      }
      Cursor = newPage();
    }
  }

  void *allocateLarge(size_t Rounded) {
    size_t Need = HeaderBytes + Rounded;
    uint32_t BlocksNeeded = static_cast<uint32_t>(
        (Need + Config.BlockBytes - 1) / Config.BlockBytes);
    PageInfo *Page = PlainCursor ? PlainCursor : newPage();
    PlainCursor = Page;
    uint32_t RunStart = 0;
    uint32_t RunLen = 0;
    bool Found = false;
    for (uint32_t Idx = 0; Idx < BlocksPerPage; ++Idx) {
      if (Page->Used[Idx] == 0) {
        if (RunLen == 0)
          RunStart = Idx;
        if (++RunLen == BlocksNeeded) {
          Found = true;
          break;
        }
      } else {
        RunLen = 0;
      }
    }
    if (!Found) {
      Page = newPage();
      PlainCursor = Page;
      RunStart = 0;
    }
    char *Chunk = Page->Base + size_t(RunStart) * Config.BlockBytes;
    for (uint32_t Idx = RunStart; Idx < RunStart + BlocksNeeded; ++Idx)
      Page->Used[Idx] = static_cast<uint16_t>(Config.BlockBytes);
    Page->Live[RunStart] = 1;
    auto *Header = reinterpret_cast<ChunkHeader *>(Chunk);
    Header->Size = static_cast<uint32_t>(Rounded);
    Header->Magic = HeaderMagic;
    Stats.BytesLive += Need;
    return Chunk + HeaderBytes;
  }

  bool chunkValid(const FreeChunk &Chunk) const {
    const PageInfo *Page = findPage(Chunk.Payload);
    uint64_t Offset =
        addrOf(Chunk.Payload) - HeaderBytes - addrOf(Page->Base);
    uint32_t BlockIdx = static_cast<uint32_t>(Offset / Config.BlockBytes);
    return Page->Epoch[BlockIdx] == Chunk.Epoch;
  }

  void *popFreeList(size_t Rounded, uint64_t PageFilter) {
    auto FreeIt = FreeLists.find(Rounded);
    if (FreeIt == FreeLists.end())
      return nullptr;
    std::vector<FreeChunk> &Chunks = FreeIt->second;
    while (!Chunks.empty() && !chunkValid(Chunks.back()))
      Chunks.pop_back();
    if (Chunks.empty())
      return nullptr;
    size_t Index = Chunks.size() - 1;
    if (PageFilter != 0) {
      size_t Scan = std::min<size_t>(Chunks.size(), 16);
      bool Found = false;
      for (size_t I = 0; I < Scan; ++I) {
        size_t Candidate = Chunks.size() - 1 - I;
        const FreeChunk &C = Chunks[Candidate];
        if (alignDown(addrOf(C.Payload), Config.PageBytes) == PageFilter &&
            chunkValid(C)) {
          Index = Candidate;
          Found = true;
          break;
        }
      }
      if (!Found)
        return nullptr;
    }
    void *Payload = Chunks[Index].Payload;
    Chunks.erase(Chunks.begin() + static_cast<ptrdiff_t>(Index));
    auto *Header = reinterpret_cast<ChunkHeader *>(
        static_cast<char *>(Payload) - HeaderBytes);
    Header->Magic = HeaderMagic;
    PageInfo *Page = findPage(Payload);
    uint32_t BlockIdx = static_cast<uint32_t>(
        (addrOf(Payload) - HeaderBytes - addrOf(Page->Base)) /
        Config.BlockBytes);
    Page->Live[BlockIdx] += 1;
    Stats.BytesLive += HeaderBytes + Rounded;
    ++Stats.FreeListReuses;
    return Payload;
  }

  int64_t findBlock(const PageInfo &Page, uint32_t NearBlock, size_t Rounded,
                    CcStrategy Strategy) const {
    size_t Need = HeaderBytes + Rounded;
    auto Fits = [&](uint32_t Idx) {
      return Page.Used[Idx] + Need <= Config.BlockBytes;
    };
    switch (Strategy) {
    case CcStrategy::Closest:
      for (uint32_t Dist = 1; Dist < BlocksPerPage; ++Dist) {
        if (NearBlock >= Dist && Fits(NearBlock - Dist))
          return NearBlock - Dist;
        if (NearBlock + Dist < BlocksPerPage && Fits(NearBlock + Dist))
          return NearBlock + Dist;
      }
      return -1;
    case CcStrategy::FirstFit:
      for (uint32_t Idx = 0; Idx < BlocksPerPage; ++Idx)
        if (Fits(Idx))
          return Idx;
      return -1;
    case CcStrategy::NewBlock:
      for (uint32_t Idx = 0; Idx < BlocksPerPage; ++Idx)
        if (Page.Used[Idx] == 0)
          return Idx;
      return -1;
    }
    return -1;
  }

  HeapConfig Config;
  HeapStats Stats;
  uint32_t BlocksPerPage = 0;
  std::unordered_map<uint64_t, std::unique_ptr<PageInfo>> Pages;
  std::unordered_map<size_t, std::vector<FreeChunk>> FreeLists;
  PageInfo *PlainCursor = nullptr;
  PageInfo *SpillCursor = nullptr;
  std::vector<std::pair<PageInfo *, uint32_t>> FreeBlockPool;
  std::vector<void *> Slabs;
  char *SlabCursor = nullptr;
  char *SlabEnd = nullptr;
};

/// Address-translation-invariant placement key: (page ordinal by first
/// appearance, offset within page). Two heaps place identically iff
/// their pointer streams translate to the same key stream.
struct PlacementTracker {
  std::unordered_map<uint64_t, size_t> Ordinals;
  std::pair<size_t, uint64_t> key(const void *Ptr, uint64_t PageBase) {
    auto [It, Inserted] = Ordinals.try_emplace(PageBase, Ordinals.size());
    (void)Inserted;
    return {It->second, addrOf(Ptr) - PageBase};
  }
};

void expectStatsEqual(const HeapStats &A, const HeapStats &B) {
  EXPECT_EQ(A.AllocCalls, B.AllocCalls);
  EXPECT_EQ(A.NearCalls, B.NearCalls);
  EXPECT_EQ(A.FreeCalls, B.FreeCalls);
  EXPECT_EQ(A.SameBlock, B.SameBlock);
  EXPECT_EQ(A.SamePage, B.SamePage);
  EXPECT_EQ(A.PageSpills, B.PageSpills);
  EXPECT_EQ(A.FreeListReuses, B.FreeListReuses);
  EXPECT_EQ(A.BlocksReclaimed, B.BlocksReclaimed);
  EXPECT_EQ(A.BytesRequested, B.BytesRequested);
  EXPECT_EQ(A.BytesLive, B.BytesLive);
  EXPECT_EQ(A.PagesAllocated, B.PagesAllocated);
}

/// Drives CcHeap and SeedHeap through one identical randomized
/// alloc/free/near sequence and requires identical placement keys for
/// every returned pointer plus identical HeapStats.
void runParityWorkload(CcStrategy Strategy, uint64_t Seed, size_t Ops) {
  CcHeap Heap;
  SeedHeap Ref;
  PlacementTracker HeapPages, RefPages;
  // Parallel live sets; identical placement keeps the indices aligned.
  std::vector<void *> HeapLive, RefLive;
  Xoshiro256 Rng(Seed);

  for (size_t Op = 0; Op < Ops; ++Op) {
    uint64_t Roll = Rng.nextBounded(10);
    if (Roll < 3 && !HeapLive.empty()) { // Free a random live chunk.
      size_t Victim = Rng.nextBounded(HeapLive.size());
      Heap.deallocate(HeapLive[Victim]);
      Ref.deallocate(RefLive[Victim]);
      HeapLive[Victim] = HeapLive.back();
      HeapLive.pop_back();
      RefLive[Victim] = RefLive.back();
      RefLive.pop_back();
      continue;
    }
    // Mixed sizes: mostly block-sharing, occasionally multi-block runs.
    static constexpr size_t SizeTable[] = {8,  13, 16, 24,  24,  40,
                                           56, 56, 90, 200, 700};
    size_t Bytes = SizeTable[Rng.nextBounded(11)];
    void *HeapPtr, *RefPtr;
    if (Roll < 8 && !HeapLive.empty()) { // Hinted allocation.
      size_t Hint = Rng.nextBounded(HeapLive.size());
      HeapPtr = Heap.allocateNear(Bytes, HeapLive[Hint], Strategy);
      RefPtr = Ref.allocateNear(Bytes, RefLive[Hint], Strategy);
    } else {
      HeapPtr = Heap.allocate(Bytes);
      RefPtr = Ref.allocate(Bytes);
    }
    ASSERT_EQ(HeapPages.key(HeapPtr, Heap.pageOf(HeapPtr)),
              RefPages.key(RefPtr, Ref.pageOf(RefPtr)))
        << "placement diverged at op " << Op << " (size " << Bytes
        << ", strategy " << strategyName(Strategy) << ")";
    HeapLive.push_back(HeapPtr);
    RefLive.push_back(RefPtr);
  }
  expectStatsEqual(Heap.stats(), Ref.stats());
}

} // namespace seedref

TEST(CcHeapParity, ClosestMatchesSeedImplementation) {
  seedref::runParityWorkload(CcStrategy::Closest, 0xC105E57ULL, 6000);
}

TEST(CcHeapParity, NewBlockMatchesSeedImplementation) {
  seedref::runParityWorkload(CcStrategy::NewBlock, 0x9E3B10CULL, 6000);
}

TEST(CcHeapParity, FirstFitMatchesSeedImplementation) {
  seedref::runParityWorkload(CcStrategy::FirstFit, 0xF127F17ULL, 6000);
}

TEST(CcHeapParity, NullAndForeignHintsMatchSeed) {
  // Null hints degrade to the plain path in both implementations.
  CcHeap Heap;
  seedref::SeedHeap Ref;
  seedref::PlacementTracker HeapPages, RefPages;
  for (size_t I = 0; I < 200; ++I) {
    size_t Bytes = 8 + 8 * (I % 7);
    void *HeapPtr = Heap.allocateNear(Bytes, nullptr, CcStrategy::Closest);
    void *RefPtr = Ref.allocateNear(Bytes, nullptr, CcStrategy::Closest);
    ASSERT_EQ(HeapPages.key(HeapPtr, Heap.pageOf(HeapPtr)),
              RefPages.key(RefPtr, Ref.pageOf(RefPtr)));
  }
  seedref::expectStatsEqual(Heap.stats(), Ref.stats());
}

//===----------------------------------------------------------------------===//
// Slab layout and epoch-validated reclaim under alternating sizes
//===----------------------------------------------------------------------===//

TEST(CcHeap, PagesComeFromAlignedSlabs) {
  // The simulator remaps addresses in 1 MiB units, and placement parity
  // across processes rests on pages sitting at fixed offsets inside
  // 1 MiB-aligned slabs: 128 default pages per slab, in creation order.
  constexpr uint64_t SlabBytes = 1 << 20;
  CcHeap Heap;
  const uint64_t PageBytes = Heap.config().PageBytes;
  const size_t PagesPerSlab = SlabBytes / PageBytes;
  // A 56-byte payload plus its 8-byte header fills one 64-byte block,
  // so every 128 allocations fill one page.
  for (size_t I = 0; I < (PagesPerSlab + 1) * (PageBytes / 64); ++I)
    ASSERT_NE(Heap.allocate(56), nullptr);
  std::vector<uint64_t> Pages;
  Heap.forEachPage(
      [&](const char *Base, size_t) { Pages.push_back(addrOf(Base)); });
  ASSERT_EQ(Pages.size(), PagesPerSlab + 1);
  EXPECT_TRUE(isAligned(Pages[0], SlabBytes));
  for (size_t P = 1; P < PagesPerSlab; ++P)
    EXPECT_EQ(Pages[P], Pages[0] + P * PageBytes) << "page " << P;
  EXPECT_TRUE(isAligned(Pages[PagesPerSlab], SlabBytes));
  EXPECT_NE(Pages[PagesPerSlab], Pages[0]);
  EXPECT_EQ(Heap.stats().SlabAcquires, 2u);
}

TEST(CcHeap, EpochReclaimAcrossAlternatingSizes) {
  // Repeatedly fill blocks with one size, free every chunk (emptying
  // the blocks, which reclaims them and bumps their epoch), then cover
  // the same blocks with a different size. The stale free-list entries
  // left by the first size must fail the epoch check instead of handing
  // out reclaimed memory twice — so all live chunks of a wave are
  // distinct addresses.
  CcAllocator Alloc(CacheParams(), CcStrategy::NewBlock);
  std::vector<void *> Wave;
  for (int Round = 0; Round < 50; ++Round) {
    size_t SizeA = Round % 2 ? 24 : 56;
    size_t SizeB = Round % 2 ? 56 : 24;
    Wave.clear();
    for (int I = 0; I < 64; ++I)
      Wave.push_back(Alloc.ccmalloc(SizeA));
    for (void *Ptr : Wave)
      Alloc.ccfree(Ptr);
    Wave.clear();
    for (int I = 0; I < 64; ++I) {
      void *Ptr = Alloc.ccmalloc(SizeB);
      std::memset(Ptr, Round, SizeB);
      Wave.push_back(Ptr);
    }
    std::sort(Wave.begin(), Wave.end());
    EXPECT_EQ(std::adjacent_find(Wave.begin(), Wave.end()), Wave.end())
        << "duplicate live chunk in round " << Round;
    for (void *Ptr : Wave)
      Alloc.ccfree(Ptr);
  }
  const HeapStats &Stats = Alloc.stats();
  EXPECT_GT(Stats.BlocksReclaimed, 0u);
  EXPECT_EQ(Stats.BytesLive, 0u);
  EXPECT_EQ(Stats.AllocCalls, uint64_t(50) * 128);
  EXPECT_EQ(Stats.FreeCalls, Stats.AllocCalls);
}
