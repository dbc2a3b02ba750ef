//===- heap/CcHeap.cpp - Page-structured cache-aware heap ------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Hot-path layout: every per-slot occupancy loop of the original
// implementation (first-fit run search, nearest-block search, bump scan)
// is driven by the per-page occupancy bitmaps instead. A bitmap candidate
// is a *necessary* condition (the block fits the smallest chunk), so each
// candidate is confirmed against the exact Used[] byte count — searches
// visit candidates in exactly the order the per-slot loops did, which
// keeps placement decisions and HeapStats bit-identical (locked down by
// the parity tests in tests/heap_test.cpp).
//
//===----------------------------------------------------------------------===//

#include "heap/CcHeap.h"

#include "support/Align.h"
#include "support/Metrics.h"
#include "support/Reflect.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

using namespace ccl;
using namespace ccl::heap;

namespace {
/// Registered once per process, when the first heap is built.
struct HeapMetrics {
  metrics::Counter AllocFast = metrics::counter("ccmalloc.alloc_fast");
  metrics::Counter AllocSlow = metrics::counter("ccmalloc.alloc_slow");
  metrics::Counter NearFast = metrics::counter("ccmalloc.near_fast");
  metrics::Counter NearSlow = metrics::counter("ccmalloc.near_slow");
  metrics::Counter FreeFast = metrics::counter("ccmalloc.free_fast");
  metrics::Counter FreeSlow = metrics::counter("ccmalloc.free_slow");
  metrics::Counter BinRefill = metrics::counter("ccmalloc.bin_refill");
  metrics::Counter BinRecycle = metrics::counter("ccmalloc.bin_recycle");
  metrics::Counter SlabAcquires = metrics::counter("ccmalloc.slab_acquires");
};

const HeapMetrics &heapMetrics() {
  static HeapMetrics M;
  return M;
}
} // namespace

const char *ccl::heap::strategyName(CcStrategy Strategy) {
  switch (Strategy) {
  case CcStrategy::Closest:
    return "closest";
  case CcStrategy::NewBlock:
    return "new-block";
  case CcStrategy::FirstFit:
    return "first-fit";
  }
  return "unknown";
}

CcHeap::CcHeap(HeapConfig ConfigIn) : Config(ConfigIn) {
  assert(isPowerOf2(Config.PageBytes) && "page size must be a power of two");
  assert(isPowerOf2(Config.BlockBytes) &&
         "block size must be a power of two");
  assert(Config.PageBytes >= Config.BlockBytes &&
         "page must hold at least one block");
  assert(Config.PageBytes <= SlabBytes &&
         "page size exceeds the slab carve size");
  assert(Config.BlockBytes > HeaderBytes &&
         "cache block must be larger than the chunk header");
  BlocksPerPage = Config.PageBytes / Config.BlockBytes;
  BitmapWords = (BlocksPerPage + 63) / 64;
  BlockShift = static_cast<uint32_t>(std::countr_zero(Config.BlockBytes));
  FreeBins.resize((Config.BlockBytes - HeaderBytes) / 8);
  heapMetrics(); // Dumps list ccmalloc.* where the first heap was built.
}

CcHeap::~CcHeap() {
  const HeapMetrics &M = heapMetrics();
  metrics::add(M.AllocFast, Stats.AllocFast);
  metrics::add(M.AllocSlow, Stats.AllocSlow);
  metrics::add(M.NearFast, Stats.NearFast);
  metrics::add(M.NearSlow, Stats.NearSlow);
  metrics::add(M.FreeFast, Stats.FreeFast);
  metrics::add(M.FreeSlow, Stats.FreeSlow);
  metrics::add(M.BinRefill, Stats.BinRefill);
  metrics::add(M.BinRecycle, Stats.BinRecycle);
  metrics::add(M.SlabAcquires, Stats.SlabAcquires);
}

CcHeap::PageInfo *CcHeap::newPage() {
  if (!SlabCursor || SlabCursor + Config.PageBytes > SlabEnd) {
    Slabs.push_back(allocateAligned(SlabBytes, SlabBytes));
    ++Stats.SlabAcquires;
    SlabCursor = Slabs.back().get();
    SlabEnd = SlabCursor + SlabBytes;
  }
  char *Memory = SlabCursor;
  SlabCursor += Config.PageBytes;

  auto Page = std::make_unique<PageInfo>();
  Page->Base = Memory;
  Page->Meta.assign(BlocksPerPage, BlockMeta{});
  // All blocks empty and fit-capable; bits past BlocksPerPage stay zero.
  Page->EmptyBits.assign(BitmapWords, ~uint64_t(0));
  uint32_t Tail = BlocksPerPage & 63;
  if (Tail)
    Page->EmptyBits.back() = (uint64_t(1) << Tail) - 1;
  Page->FitBits = Page->EmptyBits;
  PageInfo *Result = Page.get();
  PageMap.tryInsert(addrOf(Memory), addrOf(Result));
  PageList.push_back(std::move(Page));
  ++Stats.PagesAllocated;
  return Result;
}

int64_t CcHeap::findFirstSetFrom(const std::vector<uint64_t> &Bits,
                                 uint32_t From) const {
  if (From >= BlocksPerPage)
    return -1;
  uint32_t Word = From >> 6;
  uint32_t Rem = From & 63;
  uint64_t Masked = Bits[Word] & (~uint64_t(0) << Rem);
  for (;;) {
    if (Masked)
      return int64_t(Word) * 64 + std::countr_zero(Masked);
    if (++Word >= BitmapWords)
      return -1;
    Masked = Bits[Word];
  }
}

int64_t CcHeap::findLastSetAtOrBelow(const std::vector<uint64_t> &Bits,
                                     uint32_t Pos) const {
  uint32_t Word = Pos >> 6;
  uint32_t Rem = Pos & 63;
  uint64_t Masked =
      Bits[Word] & (Rem == 63 ? ~uint64_t(0) : (uint64_t(1) << (Rem + 1)) - 1);
  for (;;) {
    if (Masked)
      return int64_t(Word) * 64 + 63 - std::countl_zero(Masked);
    if (Word-- == 0)
      return -1;
    Masked = Bits[Word];
  }
}

int64_t CcHeap::findEmptyRun(const PageInfo &Page, uint32_t RunBlocks) const {
  // Walks runs of set bits word by word, carrying runs that end at a
  // word's top bit into the next word — identical to the per-slot scan's
  // "first window of RunBlocks consecutive empty blocks".
  uint32_t RunLen = 0;
  uint32_t RunStart = 0;
  for (uint32_t Word = 0; Word < BitmapWords; ++Word) {
    uint64_t Bits = Page.EmptyBits[Word];
    uint32_t Consumed = 0;
    while (Consumed < 64) {
      if (Bits == 0) {
        RunLen = 0;
        break;
      }
      uint32_t Zeros = uint32_t(std::countr_zero(Bits));
      if (Zeros) {
        RunLen = 0;
        Bits >>= Zeros;
        Consumed += Zeros;
      }
      uint32_t Ones = Bits == ~uint64_t(0)
                          ? 64u
                          : uint32_t(std::countr_one(Bits));
      if (RunLen == 0)
        RunStart = Word * 64 + Consumed;
      RunLen += Ones;
      if (RunLen >= RunBlocks)
        return RunStart;
      Consumed += Ones;
      if (Consumed >= 64)
        break; // Run reaches the word's top bit: carry into the next.
      Bits >>= Ones;
    }
  }
  return -1;
}

void *CcHeap::bumpAllocate(PageInfo *&Cursor, size_t Rounded,
                           bool EmptyBlockOnly) {
  size_t Need = HeaderBytes + Rounded;
  if (!Cursor)
    Cursor = newPage();
  for (;;) {
    int64_t Idx;
    if (EmptyBlockOnly) {
      Idx = findFirstSetFrom(Cursor->EmptyBits, Cursor->ScanHint);
    } else {
      for (Idx = findFirstSetFrom(Cursor->FitBits, Cursor->ScanHint);
           Idx >= 0 && Cursor->Meta[Idx].Used + Need > Config.BlockBytes;
           Idx = findFirstSetFrom(Cursor->FitBits, uint32_t(Idx) + 1))
        ;
    }
    if (Idx >= 0) {
      Cursor->ScanHint = uint32_t(Idx);
      return carve(*Cursor, uint32_t(Idx), Rounded);
    }
    Cursor = newPage();
  }
}

void *CcHeap::allocateLarge(size_t Rounded) {
  size_t Need = HeaderBytes + Rounded;
  assert(Need <= Config.PageBytes &&
         "CcHeap serves chunks up to one page; allocate bulk arrays "
         "directly");
  uint32_t BlocksNeeded = static_cast<uint32_t>(
      (Need + Config.BlockBytes - 1) / Config.BlockBytes);

  // Find a run of fully-empty blocks; take a fresh page if none.
  PageInfo *Page = PlainCursor ? PlainCursor : newPage();
  PlainCursor = Page;
  int64_t Run = findEmptyRun(*Page, BlocksNeeded);
  if (Run < 0) {
    Page = newPage();
    PlainCursor = Page;
    Run = 0;
  }
  uint32_t RunStart = uint32_t(Run);

  // The run is marked fully used so no small chunk shares its tail; the
  // leading block carries the live count for the whole run.
  char *Chunk = Page->Base + size_t(RunStart) * Config.BlockBytes;
  for (uint32_t Idx = RunStart; Idx < RunStart + BlocksNeeded; ++Idx) {
    Page->Meta[Idx].Used = static_cast<uint16_t>(Config.BlockBytes);
    clearBit(Page->EmptyBits, Idx);
    clearBit(Page->FitBits, Idx);
  }
  Page->Meta[RunStart].Live = 1;

  auto *Header = reinterpret_cast<ChunkHeader *>(Chunk);
  Header->Size = static_cast<uint32_t>(Rounded);
  Header->Magic = HeaderMagic;
  Stats.BytesLive += Need;
  return Chunk + HeaderBytes;
}

bool CcHeap::chunkValid(const FreeChunk &Chunk) const {
  assert(Chunk.Page == findPage(Chunk.Payload) &&
         "free-list chunk page cache out of date");
  uint64_t Offset =
      addrOf(Chunk.Payload) - HeaderBytes - addrOf(Chunk.Page->Base);
  uint32_t BlockIdx = static_cast<uint32_t>(Offset >> BlockShift);
  return Chunk.Page->Meta[BlockIdx].Epoch == Chunk.Epoch;
}

void *CcHeap::popFreeList(size_t Rounded, const PageInfo *PageFilter) {
  size_t Bin = Rounded / 8 - 1;
  if (Bin >= FreeBins.size())
    return nullptr; // Larger than any recyclable chunk.
  std::vector<FreeChunk> &Chunks = FreeBins[Bin];

  // Drop stale entries (invalidated by block reclamation) off the tail.
  while (!Chunks.empty() && !chunkValid(Chunks.back()))
    Chunks.pop_back();
  if (Chunks.empty()) {
    if (Bin < 64)
      BinsMask &= ~(uint64_t(1) << Bin);
    return nullptr;
  }

  size_t Index = Chunks.size() - 1;
  if (PageFilter) {
    // Bounded tail scan for a valid chunk on the requested page.
    size_t Scan = std::min<size_t>(Chunks.size(), 16);
    bool Found = false;
    for (size_t I = 0; I < Scan; ++I) {
      size_t Candidate = Chunks.size() - 1 - I;
      const FreeChunk &C = Chunks[Candidate];
      if (C.Page == PageFilter && chunkValid(C)) {
        Index = Candidate;
        Found = true;
        break;
      }
    }
    if (!Found)
      return nullptr;
  }

  FreeChunk Chunk = Chunks[Index];
  Chunks.erase(Chunks.begin() + static_cast<ptrdiff_t>(Index));
  if (Chunks.empty() && Bin < 64)
    BinsMask &= ~(uint64_t(1) << Bin);
  auto *Header = reinterpret_cast<ChunkHeader *>(
      static_cast<char *>(Chunk.Payload) - HeaderBytes);
  assert(Header->Magic == FreedMagic && "free-list chunk corrupted");
  Header->Magic = HeaderMagic;

  uint32_t BlockIdx = static_cast<uint32_t>(
      (addrOf(Chunk.Payload) - HeaderBytes - addrOf(Chunk.Page->Base)) >>
      BlockShift);
  Chunk.Page->Meta[BlockIdx].Live += 1;
  Stats.BytesLive += HeaderBytes + Rounded;
  ++Stats.FreeListReuses;
  return Chunk.Payload;
}

void *CcHeap::allocateSlow(size_t Rounded) {
  ++Stats.AllocSlow;
  // Recycle an exact-size chunk if one is free.
  if (void *Reused = popFreeList(Rounded, /*PageFilter=*/nullptr))
    return Reused;

  if (HeaderBytes + Rounded > Config.BlockBytes)
    return allocateLarge(Rounded);
  return bumpAllocate(PlainCursor, Rounded);
}

int64_t CcHeap::findBlock(const PageInfo &Page, uint32_t NearBlock,
                          size_t Rounded, CcStrategy Strategy) const {
  size_t Need = HeaderBytes + Rounded;
  auto Fits = [&](int64_t Idx) {
    return Page.Meta[Idx].Used + Need <= Config.BlockBytes;
  };

  // FitBits candidates are a superset of every exact fit (Need >=
  // MinNeed), so walking candidates in the per-slot loops' visit order
  // and confirming against Used[] reproduces their decisions exactly.
  switch (Strategy) {
  case CcStrategy::Closest: {
    // Candidates outward from the hint; ties resolve below the hint,
    // matching the "- Dist before + Dist" order of the original scan.
    int64_t Below = NearBlock == 0
                        ? -1
                        : findLastSetAtOrBelow(Page.FitBits, NearBlock - 1);
    int64_t Above = findFirstSetFrom(Page.FitBits, NearBlock + 1);
    while (Below >= 0 || Above >= 0) {
      uint64_t DistBelow =
          Below >= 0 ? uint64_t(NearBlock - Below) : ~uint64_t(0);
      uint64_t DistAbove =
          Above >= 0 ? uint64_t(Above - NearBlock) : ~uint64_t(0);
      if (DistBelow <= DistAbove) {
        if (Fits(Below))
          return Below;
        Below = Below == 0
                    ? -1
                    : findLastSetAtOrBelow(Page.FitBits, uint32_t(Below) - 1);
      } else {
        if (Fits(Above))
          return Above;
        Above = findFirstSetFrom(Page.FitBits, uint32_t(Above) + 1);
      }
    }
    return -1;
  }
  case CcStrategy::FirstFit:
    for (int64_t Idx = findFirstSetFrom(Page.FitBits, 0); Idx >= 0;
         Idx = findFirstSetFrom(Page.FitBits, uint32_t(Idx) + 1))
      if (Fits(Idx))
        return Idx;
    return -1;
  case CcStrategy::NewBlock:
    return findFirstSetFrom(Page.EmptyBits, 0);
  }
  return -1;
}

void *CcHeap::allocateNearSlow(PageInfo &Page, uint32_t NearBlock,
                               size_t Rounded, CcStrategy Strategy) {
  ++Stats.NearSlow;
  // Fallback: same page, block chosen by strategy. Same-page placement
  // keeps the working set small and cannot conflict in the cache with
  // the hint (paper §3.2.1).
  int64_t BlockIdx = findBlock(Page, NearBlock, Rounded, Strategy);
  if (BlockIdx >= 0) {
    ++Stats.SamePage;
    return carve(Page, static_cast<uint32_t>(BlockIdx), Rounded);
  }

  // Page full: recycle a freed chunk on the hint's page if one exists
  // (keeps the working set on the page, the paper's secondary goal);
  // otherwise spill to the overflow cursor. The spill deliberately does
  // NOT take a random freed chunk from another page: the object chain
  // migrates to a fresh page and subsequent hinted allocations co-locate
  // there again.
  if (void *Reused = popFreeList(Rounded, &Page)) {
    ++Stats.SamePage;
    return Reused;
  }
  ++Stats.PageSpills;
  // Prefer a whole reclaimed block: the migrating chain gets a fresh
  // block with room for several future same-block co-locations.
  while (!FreeBlockPool.empty()) {
    auto [PoolPage, PoolIdx] = FreeBlockPool.back();
    FreeBlockPool.pop_back();
    if (PoolPage->Meta[PoolIdx].Used == 0)
      return carve(*PoolPage, PoolIdx, Rounded);
  }
  return bumpAllocate(SpillCursor, Rounded, /*EmptyBlockOnly=*/true);
}

void CcHeap::reclaimBlocks(PageInfo &Page, uint32_t BlockIdx, size_t Need) {
  ++Stats.FreeSlow;
  // Reclaim the dead block run and invalidate any free-list entries
  // pointing into it (via the epoch bump).
  uint32_t BlocksSpanned = static_cast<uint32_t>(
      (Need + Config.BlockBytes - 1) / Config.BlockBytes);
  for (uint32_t Idx = BlockIdx; Idx < BlockIdx + BlocksSpanned; ++Idx) {
    Page.Meta[Idx].Used = 0;
    Page.Meta[Idx].Epoch += 1;
    setBit(Page.EmptyBits, Idx);
    setBit(Page.FitBits, Idx);
    // Same adjacent-duplicate collapse as the inline single-block path.
    if (FreeBlockPool.empty() || FreeBlockPool.back().first != &Page ||
        FreeBlockPool.back().second != Idx)
      FreeBlockPool.push_back({&Page, Idx});
  }
  Page.ScanHint = std::min(Page.ScanHint, BlockIdx);
  ++Stats.BlocksReclaimed;
}

bool CcHeap::owns(const void *Ptr) const {
  return Ptr && findPage(Ptr) != nullptr;
}

uint64_t CcHeap::pageOf(const void *Ptr) const {
  const PageInfo *Page = findPage(Ptr);
  return Page ? addrOf(Page->Base) : 0;
}

uint64_t CcHeap::blockOf(const void *Ptr) const {
  return addrOf(Ptr) / Config.BlockBytes;
}

size_t CcHeap::sizeOf(const void *Ptr) const {
  assert(owns(Ptr) && "sizeOf: pointer not owned by this heap");
  const auto *Header = reinterpret_cast<const ChunkHeader *>(
      static_cast<const char *>(Ptr) - HeaderBytes);
  assert(Header->Magic == HeaderMagic && "sizeOf: bad chunk header");
  return Header->Size;
}

void CcHeap::reflectTypes() {
  CCL_REFLECT("heap", ChunkHeader, Size, Magic);
  CCL_REFLECT("heap", BlockMeta, Used, Live, Epoch);
  CCL_REFLECT("heap", FreeChunk, Payload, Page, Epoch);
  CCL_REFLECT("heap", HeapConfig, PageBytes, BlockBytes);
  CCL_REFLECT("heap", HeapStats, AllocCalls, NearCalls, FreeCalls, SameBlock,
              SamePage, PageSpills, FreeListReuses, BlocksReclaimed,
              BytesRequested, BytesLive, PagesAllocated, AllocFast, AllocSlow,
              NearFast, NearSlow, FreeFast, FreeSlow, BinRefill, BinRecycle,
              SlabAcquires);
}
