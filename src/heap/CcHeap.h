//===- heap/CcHeap.h - Page-structured cache-aware heap --------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap substrate beneath ccmalloc. The paper's allocator needs two
/// capabilities a stock malloc does not expose: (1) placing a new object
/// in a *specific L2 cache block*, and (2) keeping co-located objects on
/// the *same virtual-memory page*. CcHeap provides both:
///
///  * memory is carved from page-aligned pages (default 8 KB), which are
///    themselves carved sequentially from large aligned slabs so page
///    grouping is deterministic;
///  * each page is divided into cache-block-sized slots (default 64 B,
///    the paper's L2 block) with per-slot occupancy, live-chunk counts,
///    and an epoch — when every chunk in a block dies the whole block is
///    reclaimed for future co-location;
///  * objects carry an 8-byte header (size + magic) so deallocation needs
///    no external metadata — this is the "bookkeeping overhead ...
///    inversely proportional to the size of a cache block" of §3.2.1;
///  * freed chunks whose block is still partially live are recycled
///    through segregated exact-size free lists (entries are validated
///    against the block epoch, so block reclamation invalidates them).
///
/// The three placement strategies of §3.2.1 (closest / new-block /
/// first-fit) are implemented in allocateNear().
///
//===----------------------------------------------------------------------===//

#ifndef CCL_HEAP_CCHEAP_H
#define CCL_HEAP_CCHEAP_H

#include "support/Align.h"
#include "support/FlatMap.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ccl::heap {

/// Placement strategy when the target cache block is full (§3.2.1).
enum class CcStrategy {
  /// Allocate as close to the existing block as possible.
  Closest,
  /// Allocate in a fully unused cache block, optimistically reserving the
  /// remainder of the block for future ccmalloc calls.
  NewBlock,
  /// First-fit over the page's cache blocks.
  FirstFit,
};

/// Returns a short human-readable name ("closest", "new-block", ...).
const char *strategyName(CcStrategy Strategy);

/// Geometry of the heap.
struct HeapConfig {
  /// Virtual-memory page size; pages are aligned to this.
  uint32_t PageBytes = 8192;
  /// Co-location granularity: the L2 cache block size.
  uint32_t BlockBytes = 64;
};

/// Allocation statistics, including the co-location outcomes that the
/// evaluation reports (same-block rate, memory overhead).
struct HeapStats {
  uint64_t AllocCalls = 0;
  uint64_t NearCalls = 0;
  uint64_t FreeCalls = 0;
  /// Near-allocations placed in the same cache block as the hint.
  uint64_t SameBlock = 0;
  /// Near-allocations placed on the hint's page but another block.
  uint64_t SamePage = 0;
  /// Near-allocations that spilled to an overflow page.
  uint64_t PageSpills = 0;
  uint64_t FreeListReuses = 0;
  /// Blocks whose chunks all died and were reclaimed wholesale.
  uint64_t BlocksReclaimed = 0;
  uint64_t BytesRequested = 0;
  uint64_t BytesLive = 0;
  uint64_t PagesAllocated = 0;
  /// Calls by path: the inline fast paths of allocate(), allocateNear()
  /// and deallocate() against their out-of-line continuations, plus
  /// free-list refills and recycles and slabs drawn. ~CcHeap adds them
  /// to the ccmalloc.* registry counters (support/Metrics.h).
  uint64_t AllocFast = 0;
  uint64_t AllocSlow = 0;
  uint64_t NearFast = 0;
  uint64_t NearSlow = 0;
  uint64_t FreeFast = 0;
  uint64_t FreeSlow = 0;
  uint64_t BinRefill = 0;
  uint64_t BinRecycle = 0;
  uint64_t SlabAcquires = 0;

  double sameBlockRate() const {
    return NearCalls == 0 ? 0.0
                          : static_cast<double>(SameBlock) / NearCalls;
  }
};

/// A page-structured heap with cache-block-granular placement.
///
/// A CcHeap is single-threaded, matching the paper's uniprocessor
/// evaluation: placement and HeapStats are a pure function of the call
/// sequence.
class CcHeap {
public:
  explicit CcHeap(HeapConfig Config = HeapConfig());
  /// Adds the path counts in stats() to the ccmalloc.* counters.
  ~CcHeap();

  CcHeap(const CcHeap &) = delete;
  CcHeap &operator=(const CcHeap &) = delete;

  /// Registers the heap's metadata layouts (ChunkHeader, BlockMeta,
  /// FreeChunk — private, hence a member) plus HeapConfig/HeapStats
  /// with the reflection TypeRegistry (support/Reflect.h). Idempotent;
  /// defined in CcHeap.cpp.
  static void reflectTypes();

  /// Plain allocation (the `malloc` path): fills cache blocks of the
  /// current page sequentially, so consecutive allocations cluster in
  /// allocation order — the behaviour of a fresh system heap.
  ///
  /// Defined inline: the common case (no recyclable chunk of this class,
  /// bump cursor's block has room) is a handful of instructions and an
  /// allocator is called far too often to pay a cross-TU call for it.
  void *allocate(size_t Size) {
    ++Stats.AllocCalls;
    size_t Rounded = roundSize(Size);
    Stats.BytesRequested += Size;
    size_t Need = HeaderBytes + Rounded;
    // Need <= BlockBytes implies Rounded / 8 - 1 indexes FreeBins; a
    // clear BinsMask bit means the bin is empty so popFreeList() would
    // miss, and a fitting ScanHint block is exactly what bumpAllocate()
    // would pick first. A set bit routes to the recycle path: a valid
    // entry at the bin's top is exactly popFreeList()'s first pick.
    size_t Bin = Rounded / 8 - 1;
    if (Need <= Config.BlockBytes && Bin < 64) {
      if ((BinsMask >> Bin & 1) == 0) {
        if (PlainCursor) {
          PageInfo &Page = *PlainCursor;
          uint32_t Idx = Page.ScanHint;
          if (Page.Meta[Idx].Used + Need <= Config.BlockBytes) {
            ++Stats.AllocFast;
            return carve(Page, Idx, Rounded);
          }
          // Sequential fill: the hint block just filled up, the next
          // block is the scan's first candidate (no earlier FitBits bit
          // exists between them). Identical to bumpAllocate()'s pick.
          uint32_t NextIdx = Idx + 1;
          if (NextIdx < BlocksPerPage && testBit(Page.FitBits, NextIdx) &&
              Page.Meta[NextIdx].Used + Need <= Config.BlockBytes) {
            Page.ScanHint = NextIdx;
            ++Stats.AllocFast;
            return carve(Page, NextIdx, Rounded);
          }
        }
      } else if (void *Reused = popFreeListFast(Bin, Need)) {
        ++Stats.AllocFast;
        ++Stats.BinRecycle;
        return Reused;
      }
    }
    return allocateSlow(Rounded);
  }

  /// Cache-conscious allocation: places the new object in the same L2
  /// cache block as \p Near if the block has room; otherwise picks a
  /// block on Near's page per \p Strategy; otherwise recycles a freed
  /// chunk on that page; otherwise spills to an overflow page. A null or
  /// foreign \p Near degrades to allocate().
  ///
  /// Inline fast path: the paper's primary goal (same block as the hint)
  /// is one page-map probe plus one occupancy compare.
  void *allocateNear(size_t Size, const void *Near, CcStrategy Strategy) {
    PageInfo *Page = Near ? findPage(Near) : nullptr;
    if (!Page)
      return allocate(Size); // Null or foreign hint: plain malloc path.
    ++Stats.AllocCalls;
    ++Stats.NearCalls;
    size_t Rounded = roundSize(Size);
    Stats.BytesRequested += Size;
    size_t Need = HeaderBytes + Rounded;
    if (Need > Config.BlockBytes)
      return allocateLarge(Rounded);
    uint32_t NearBlock = static_cast<uint32_t>(
        (addrOf(Near) - addrOf(Page->Base)) >> BlockShift);
    // Primary goal: same cache block as the hint.
    if (Page->Meta[NearBlock].Used + Need <= Config.BlockBytes) {
      ++Stats.SameBlock;
      ++Stats.NearFast;
      return carve(*Page, NearBlock, Rounded);
    }
    // Closest-strategy distance-1 shortcut, the common case when a chain
    // streams down a page: findBlock() visits candidates by distance
    // with ties below first, so a fitting block at NearBlock - 1 is its
    // first pick; if no candidate exists below at all, a fitting block
    // at NearBlock + 1 beats every remaining (distance >= 2) candidate.
    if (Strategy == CcStrategy::Closest) {
      bool BelowBit = NearBlock > 0 && testBit(Page->FitBits, NearBlock - 1);
      if (BelowBit) {
        if (Page->Meta[NearBlock - 1].Used + Need <= Config.BlockBytes) {
          ++Stats.SamePage;
          ++Stats.NearFast;
          return carve(*Page, NearBlock - 1, Rounded);
        }
      } else if (NearBlock + 1 < BlocksPerPage &&
                 testBit(Page->FitBits, NearBlock + 1) &&
                 Page->Meta[NearBlock + 1].Used + Need <= Config.BlockBytes) {
        ++Stats.SamePage;
        ++Stats.NearFast;
        return carve(*Page, NearBlock + 1, Rounded);
      }
    }
    return allocateNearSlow(*Page, NearBlock, Rounded, Strategy);
  }

  /// Returns the chunk to the heap. \p Ptr must come from this heap
  /// (asserted via the chunk header magic).
  void deallocate(void *Ptr) {
    if (!Ptr)
      return;
    auto *Header = reinterpret_cast<ChunkHeader *>(static_cast<char *>(Ptr) -
                                                   HeaderBytes);
    assert(Header->Magic == HeaderMagic &&
           "deallocate: bad chunk (double free or foreign pointer?)");
    assert(owns(Ptr) && "deallocate: pointer not owned by this heap");
    PageInfo *Page = findPage(Ptr);
    size_t Need = HeaderBytes + Header->Size;
    uint64_t Offset = addrOf(Ptr) - HeaderBytes - addrOf(Page->Base);
    uint32_t BlockIdx = static_cast<uint32_t>(Offset >> BlockShift);

    Header->Magic = FreedMagic;
    Stats.BytesLive -= Need;
    ++Stats.FreeCalls;

    BlockMeta &M = Page->Meta[BlockIdx];
    assert(M.Live > 0 && "live count underflow");
    M.Live -= 1;
    if (M.Live == 0) {
      // Whole block dead: the single-block case stays inline (alloc/free
      // pairs hit it constantly); multi-block runs (large chunks) and
      // their free-list invalidation go out of line.
      if (Need <= Config.BlockBytes) {
        M.Used = 0;
        M.Epoch += 1;
        setBit(Page->EmptyBits, BlockIdx);
        setBit(Page->FitBits, BlockIdx);
        // Skip the push when the top entry already names this block
        // (alloc/free cycles reclaim the same block over and over). A
        // buried duplicate is only reached after the newer entry above
        // it is popped — which carves the block (invalidating the
        // duplicate) or skips it — and any later reclaim pushes a fresh
        // entry on top first, so a duplicate is never popped valid and
        // collapsing it cannot change placement.
        if (FreeBlockPool.empty() || FreeBlockPool.back().first != Page ||
            FreeBlockPool.back().second != BlockIdx)
          FreeBlockPool.push_back({Page, BlockIdx});
        if (BlockIdx < Page->ScanHint)
          Page->ScanHint = BlockIdx;
        ++Stats.BlocksReclaimed;
        ++Stats.FreeFast;
        return;
      }
      reclaimBlocks(*Page, BlockIdx, Need);
      return;
    }
    size_t Bin = Header->Size / 8 - 1;
    assert(Bin < FreeBins.size() &&
           "block-sharing chunk exceeds the recyclable size classes");
    if (Bin < 64)
      BinsMask |= uint64_t(1) << Bin;
    FreeBins[Bin].push_back({Ptr, Page, M.Epoch});
    ++Stats.FreeFast;
    ++Stats.BinRefill;
  }

  /// True if \p Ptr points into memory managed by this heap.
  bool owns(const void *Ptr) const;

  /// Base address of the page containing \p Ptr, or 0 if not owned.
  uint64_t pageOf(const void *Ptr) const;

  /// Cache-block index (block address) of \p Ptr: Addr / BlockBytes.
  uint64_t blockOf(const void *Ptr) const;

  /// Payload size recorded for an owned chunk (rounded up to 8 bytes).
  size_t sizeOf(const void *Ptr) const;

  const HeapConfig &config() const { return Config; }
  const HeapStats &stats() const { return Stats; }

  /// Total memory reserved from the OS in committed pages (the paper's
  /// "memory allocated" / overhead metric).
  uint64_t footprintBytes() const {
    return Stats.PagesAllocated * Config.PageBytes;
  }

  /// Invokes \p Callback(Base, PageBytes) for every committed page (in
  /// creation order). Used for telemetry region registration.
  template <typename Fn> void forEachPage(Fn &&Callback) const {
    for (const auto &Page : PageList)
      Callback(static_cast<const char *>(Page->Base), size_t(Config.PageBytes));
  }

private:
  /// Per-block occupancy record, packed to 8 bytes so the fields every
  /// alloc/free touches (byte fill, live count, epoch) share one cache
  /// line instead of living in three parallel arrays.
  struct BlockMeta {
    /// Bytes consumed in the cache-block slot (bump within block).
    uint16_t Used = 0;
    /// Live chunks; when it returns to zero the block is reclaimed
    /// (Used reset, epoch bumped).
    uint16_t Live = 0;
    /// Bumped on reclamation; invalidates stale free-list entries.
    uint32_t Epoch = 0;
  };

  struct PageInfo {
    char *Base = nullptr;
    /// Per-cache-block occupancy, one packed record per block.
    std::vector<BlockMeta> Meta;
    /// Occupancy bitmaps, one bit per block, walked with countr_zero
    /// instead of per-slot loops. EmptyBits: block is fully unused
    /// (Used == 0). FitBits: block can still fit the smallest chunk
    /// (Used + MinNeed <= BlockBytes) — a superset of every "fits N
    /// bytes" predicate, so fit searches probe only FitBits candidates.
    /// Bits past BlocksPerPage stay zero.
    std::vector<uint64_t> EmptyBits;
    std::vector<uint64_t> FitBits;
    /// Scan hint for the sequential bump path.
    uint32_t ScanHint = 0;
  };

  struct FreeChunk {
    void *Payload;
    PageInfo *Page; ///< Owning page, cached to skip the page-map probe.
    uint32_t Epoch;
  };

  struct ChunkHeader {
    uint32_t Size;
    uint32_t Magic;
  };
  static constexpr uint32_t HeaderMagic = 0xCCA110C8u;
  static constexpr uint32_t FreedMagic = 0xDEADF9EEu;
  static constexpr size_t HeaderBytes = sizeof(ChunkHeader);
  /// Smallest possible chunk: header plus the minimum rounded payload.
  static constexpr size_t MinNeed = HeaderBytes + 8;
  /// Pages are carved in order from slabs this large and this aligned,
  /// so the grouping of pages into cache-capacity regions (and the
  /// simulator's 1 MiB translation units) is deterministic.
  static constexpr size_t SlabBytes = 1 << 20;

  PageInfo *newPage();
  PageInfo *findPage(const void *Ptr) const {
    uint64_t Base = alignDown(addrOf(Ptr), Config.PageBytes);
    const uint64_t *Found = PageMap.find(Base);
    return Found ? reinterpret_cast<PageInfo *>(*Found) : nullptr;
  }
  /// Carves a chunk of \p Rounded bytes at block \p BlockIdx of \p Page.
  void *carve(PageInfo &Page, uint32_t BlockIdx, size_t Rounded) {
    size_t Need = HeaderBytes + Rounded;
    assert(BlockIdx < BlocksPerPage && "block index out of range");
    BlockMeta &M = Page.Meta[BlockIdx];
    assert(M.Used + Need <= Config.BlockBytes &&
           "carve target block lacks space");
    char *Chunk = Page.Base + (size_t(BlockIdx) << BlockShift) + M.Used;
    if (M.Used == 0)
      clearBit(Page.EmptyBits, BlockIdx);
    M.Used += static_cast<uint16_t>(Need);
    if (M.Used + MinNeed > Config.BlockBytes)
      clearBit(Page.FitBits, BlockIdx);
    M.Live += 1;

    auto *Header = reinterpret_cast<ChunkHeader *>(Chunk);
    Header->Size = static_cast<uint32_t>(Rounded);
    Header->Magic = HeaderMagic;
    Stats.BytesLive += Need;
    return Chunk + HeaderBytes;
  }
  /// Inline top-of-bin recycle: pops FreeBins[Bin]'s newest entry when
  /// it is still epoch-valid — exactly the entry popFreeList() would
  /// select (it drops stale tails first; a valid tail IS its pick).
  /// Returns null (stale tail, empty bin) to defer to the slow path.
  void *popFreeListFast(size_t Bin, size_t Need) {
    std::vector<FreeChunk> &Chunks = FreeBins[Bin];
    if (Chunks.empty())
      return nullptr;
    FreeChunk Chunk = Chunks.back();
    uint32_t BlockIdx = static_cast<uint32_t>(
        (addrOf(Chunk.Payload) - HeaderBytes - addrOf(Chunk.Page->Base)) >>
        BlockShift);
    BlockMeta &M = Chunk.Page->Meta[BlockIdx];
    if (M.Epoch != Chunk.Epoch)
      return nullptr; // Stale: let popFreeList() drop the dead tail.
    Chunks.pop_back();
    if (Chunks.empty())
      BinsMask &= ~(uint64_t(1) << Bin);
    auto *Header = reinterpret_cast<ChunkHeader *>(
        static_cast<char *>(Chunk.Payload) - HeaderBytes);
    assert(Header->Magic == FreedMagic && "free-list chunk corrupted");
    Header->Magic = HeaderMagic;
    M.Live += 1;
    Stats.BytesLive += Need;
    ++Stats.FreeListReuses;
    return Chunk.Payload;
  }
  /// The allocate() continuation once the inline fast path misses:
  /// free-list recycle, the large-chunk path, or a full bump scan.
  void *allocateSlow(size_t Rounded);
  /// The allocateNear() continuation once the hinted block is full:
  /// strategy search, same-page recycle, then the spill path.
  void *allocateNearSlow(PageInfo &Page, uint32_t NearBlock, size_t Rounded,
                         CcStrategy Strategy);
  /// Reclaims the dead block run starting at \p BlockIdx (large chunks
  /// span several blocks) and invalidates its free-list entries.
  void reclaimBlocks(PageInfo &Page, uint32_t BlockIdx, size_t Need);
  /// Sequentially fills blocks of \p Cursor's page; advances pages as
  /// needed. When \p EmptyBlockOnly is set, only fully-empty blocks are
  /// used (the near-spill path: the block's remainder stays reserved for
  /// the spilled chain's future co-locations, not for the spill stream).
  void *bumpAllocate(PageInfo *&Cursor, size_t Rounded,
                     bool EmptyBlockOnly = false);
  /// Finds a block in \p Page with \p Rounded free bytes per \p Strategy,
  /// or a negative value if none fits.
  int64_t findBlock(const PageInfo &Page, uint32_t NearBlock, size_t Rounded,
                    CcStrategy Strategy) const;
  /// Allocates a run of fully-empty blocks for oversized chunks.
  void *allocateLarge(size_t Rounded);
  size_t roundSize(size_t Size) const {
    if (Size == 0)
      Size = 1;
    return alignUp(Size, 8);
  }
  /// Pops a recycled chunk of exactly \p Rounded payload bytes, skipping
  /// entries invalidated by block reclamation. When \p PageFilter is
  /// non-null only chunks on that page qualify (bounded tail scan).
  void *popFreeList(size_t Rounded, const PageInfo *PageFilter);
  /// True if the free-list entry still refers to a live-epoch block.
  bool chunkValid(const FreeChunk &Chunk) const;
  /// First set bit at index >= \p From, or -1 when none.
  int64_t findFirstSetFrom(const std::vector<uint64_t> &Bits,
                           uint32_t From) const;
  /// Highest set bit at index <= \p Pos, or -1 when none.
  int64_t findLastSetAtOrBelow(const std::vector<uint64_t> &Bits,
                               uint32_t Pos) const;
  /// Start of the first run of \p RunBlocks consecutive empty blocks.
  int64_t findEmptyRun(const PageInfo &Page, uint32_t RunBlocks) const;
  static void setBit(std::vector<uint64_t> &Bits, uint32_t Idx) {
    Bits[Idx >> 6] |= uint64_t(1) << (Idx & 63);
  }
  static void clearBit(std::vector<uint64_t> &Bits, uint32_t Idx) {
    Bits[Idx >> 6] &= ~(uint64_t(1) << (Idx & 63));
  }
  static bool testBit(const std::vector<uint64_t> &Bits, uint32_t Idx) {
    return (Bits[Idx >> 6] >> (Idx & 63)) & 1;
  }

  HeapConfig Config;
  HeapStats Stats;
  uint32_t BlocksPerPage;
  uint32_t BitmapWords;
  /// log2(BlockBytes): block arithmetic shifts instead of dividing by a
  /// runtime value (the compiler cannot know it is a power of two).
  uint32_t BlockShift;
  /// Page base address -> PageInfo (one cache-line probe on the hot
  /// lookup path); PageList owns the pages in creation order.
  FlatMap64 PageMap;
  std::vector<std::unique_ptr<PageInfo>> PageList;
  /// Exact-size-class free lists: FreeBins[Rounded / 8 - 1] holds
  /// recycled chunks of exactly Rounded payload bytes. Only block-sized
  /// chunks recycle (large runs always reclaim whole), so the array has
  /// (BlockBytes - HeaderBytes) / 8 classes.
  std::vector<std::vector<FreeChunk>> FreeBins;
  /// One may-be-non-empty bit per size class (classes >= 64, which only
  /// exist for exotic block sizes, are untracked and always take the
  /// slow path). A clear bit guarantees the bin is empty, letting the
  /// allocate() fast path skip loading the bin vector entirely; a set
  /// bit may be conservative (stale entries), which only costs the slow
  /// path a confirming popFreeList() miss.
  uint64_t BinsMask = 0;
  PageInfo *PlainCursor = nullptr;
  PageInfo *SpillCursor = nullptr;
  /// Reclaimed blocks (page, block index) available for spill
  /// allocations; entries are validated against Used == 0 when popped.
  std::vector<std::pair<PageInfo *, uint32_t>> FreeBlockPool;
  /// Every slab drawn so far; newPage() carves pages from the last one
  /// between SlabCursor and SlabEnd.
  std::vector<AlignedBuffer> Slabs;
  char *SlabCursor = nullptr;
  char *SlabEnd = nullptr;
};

} // namespace ccl::heap

#endif // CCL_HEAP_CCHEAP_H
