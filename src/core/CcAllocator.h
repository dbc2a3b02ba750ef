//===- core/CcAllocator.h - The ccmalloc interface -------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's `ccmalloc` (§3.2.1): a memory allocator that takes one
/// extra argument — a pointer to an existing structure element likely to
/// be accessed contemporaneously — and attempts to place the new object
/// in the same L2 cache block. Misuse can only cost performance, never
/// correctness.
///
/// \code
///   ccl::CcAllocator Alloc(ccl::CacheParams::fromHierarchy(Config),
///                          ccl::heap::CcStrategy::NewBlock);
///   auto *Cell = Alloc.create<ListCell>(/*Near=*/Prev);
/// \endcode
///
/// A process-wide default allocator is also provided so code can call
/// `ccl::ccmalloc(Size, Near)` / `ccl::ccfree(Ptr)` exactly as in the
/// paper's Figure 4.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_CORE_CCALLOCATOR_H
#define CCL_CORE_CCALLOCATOR_H

#include "core/CacheParams.h"
#include "heap/CcHeap.h"
#include "heap/SlabSource.h"

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace ccl {

/// Cache-conscious allocator facade over the page-structured heap.
///
/// Default mode is a single shard — one CcHeap, single-threaded, fully
/// deterministic; every seeded experiment uses it. The sharded
/// constructor builds N allocators over one shared SlabSource: each
/// shard owns disjoint 1 MB slabs and all of its alloc/free state, so N
/// threads can build a structure concurrently by each driving its own
/// shardFor(tid) with no locks anywhere on the allocation fast path
/// (the only mutex is SlabSource's, taken once per slab of growth).
/// Cross-shard operations — routing a free to the shard that owns the
/// pointer, merging stats — are for the serial phases between parallel
/// regions.
///
/// Thread-safety contract (checked where a capability exists): a shard
/// holds no locks and must be driven by at most one thread at a time;
/// the only mutex in the sharded configuration is SlabSource's, whose
/// guarded state carries CCL_GUARDED_BY annotations
/// (support/ThreadSafety.h) and is verified under the clang-tsa preset.
/// shardOwning()/ccfreeRouted()/mergedStats() take that mutex via
/// SlabSource and are therefore serial-phase operations.
class CcAllocator {
public:
  /// \param Params cache geometry; only BlockBytes and PageBytes matter
  ///        here (ccmalloc is a purely local technique, §3.2).
  /// \param Strategy fallback placement when the hinted block is full.
  explicit CcAllocator(
      const CacheParams &Params = CacheParams(),
      heap::CcStrategy Strategy = heap::CcStrategy::NewBlock)
      : Heap(heap::HeapConfig{Params.PageBytes, Params.BlockBytes}),
        Strategy(Strategy) {}

  /// Sharded front-end: this allocator becomes shard 0 of \p Shards
  /// shards drawing from one shared slab source; shardFor() hands out
  /// the others. \p Shards <= 1 degrades to the single-shard mode.
  CcAllocator(const CacheParams &Params, heap::CcStrategy Strategy,
              unsigned Shards)
      : SharedSlabs(Shards > 1 ? std::make_unique<heap::SlabSource>()
                               : nullptr),
        Heap(heap::HeapConfig{Params.PageBytes, Params.BlockBytes},
             SharedSlabs.get(), /*ShardId=*/0),
        Strategy(Strategy) {
    if (Shards > 1) {
      ShardAllocs.reserve(Shards - 1);
      for (unsigned I = 1; I < Shards; ++I)
        ShardAllocs.push_back(std::unique_ptr<CcAllocator>(new CcAllocator(
            Params, Strategy, SharedSlabs.get(), I)));
    }
  }

  /// The paper's ccmalloc: allocate \p Size bytes near \p Near.
  void *ccmalloc(size_t Size, const void *Near) {
    return Heap.allocateNear(Size, Near, Strategy);
  }

  /// Plain allocation (equivalent to passing a null hint).
  void *ccmalloc(size_t Size) { return Heap.allocate(Size); }

  void ccfree(void *Ptr) { Heap.deallocate(Ptr); }

  /// Typed convenience: allocates and constructs a T near \p Near.
  template <typename T, typename... Args>
  T *create(const void *Near, Args &&...CtorArgs) {
    void *Memory = ccmalloc(sizeof(T), Near);
    return new (Memory) T(std::forward<Args>(CtorArgs)...);
  }

  /// Typed convenience: destroys and frees an object from create().
  template <typename T> void destroy(T *Ptr) {
    if (!Ptr)
      return;
    Ptr->~T();
    ccfree(Ptr);
  }

  heap::CcStrategy strategy() const { return Strategy; }
  void setStrategy(heap::CcStrategy NewStrategy) { Strategy = NewStrategy; }

  const heap::CcHeap &heap() const { return Heap; }
  const heap::HeapStats &stats() const { return Heap.stats(); }
  uint64_t footprintBytes() const { return Heap.footprintBytes(); }

  /// Shards available for concurrent use (1 in the default mode).
  unsigned shardCount() const {
    return unsigned(ShardAllocs.size()) + 1;
  }

  /// The shard allocator for worker \p Tid (e.g. a sweep cell index),
  /// mapped modulo the shard count. Each shard is itself a CcAllocator,
  /// so existing construction code works unchanged — hand every worker
  /// thread its own shard and it may allocate/free concurrently with the
  /// others. A shard must be driven by at most one thread at a time; a
  /// worker that adopts a shard should call
  /// rebindMetricsToCurrentThread() on it first.
  CcAllocator &shardFor(unsigned Tid) {
    unsigned Index = Tid % shardCount();
    return Index == 0 ? *this : *ShardAllocs[Index - 1];
  }
  const CcAllocator &shardFor(unsigned Tid) const {
    return const_cast<CcAllocator *>(this)->shardFor(Tid);
  }

  /// Re-caches this shard's heap metrics cells onto the calling thread
  /// (see CcHeap::rebindMetricsToCurrentThread).
  void rebindMetricsToCurrentThread() {
    Heap.rebindMetricsToCurrentThread();
  }

  /// The shard that owns \p Ptr (sharded mode: slab-ownership lookup
  /// through the shared source), or null when no shard owns it. Serial
  /// phases only — the lookup takes the slab-source mutex.
  CcAllocator *shardOwning(const void *Ptr) {
    if (!SharedSlabs)
      return Heap.owns(Ptr) ? this : nullptr;
    uint32_t Owner = SharedSlabs->ownerOf(Ptr);
    if (Owner == heap::SlabSource::NoOwner)
      return nullptr;
    return &shardFor(Owner);
  }

  /// Frees a pointer owned by any shard by routing it to its owner.
  /// Serial phases only; within a parallel region each worker frees on
  /// its own shard directly.
  void ccfreeRouted(void *Ptr) {
    if (!Ptr)
      return;
    CcAllocator *Owner = shardOwning(Ptr);
    assert(Owner && "ccfreeRouted: pointer not owned by any shard");
    Owner->ccfree(Ptr);
  }

  /// Sum of all shards' HeapStats, in shard order — deterministic for a
  /// deterministic per-shard call sequence regardless of how threads
  /// interleaved between shards.
  heap::HeapStats mergedStats() const {
    heap::HeapStats Total = Heap.stats();
    for (const auto &Shard : ShardAllocs) {
      const heap::HeapStats &S = Shard->stats();
      Total.AllocCalls += S.AllocCalls;
      Total.NearCalls += S.NearCalls;
      Total.FreeCalls += S.FreeCalls;
      Total.SameBlock += S.SameBlock;
      Total.SamePage += S.SamePage;
      Total.PageSpills += S.PageSpills;
      Total.FreeListReuses += S.FreeListReuses;
      Total.BlocksReclaimed += S.BlocksReclaimed;
      Total.BytesRequested += S.BytesRequested;
      Total.BytesLive += S.BytesLive;
      Total.PagesAllocated += S.PagesAllocated;
    }
    return Total;
  }

  /// Memory reserved from the OS across all shards.
  uint64_t mergedFootprintBytes() const {
    uint64_t Total = footprintBytes();
    for (const auto &Shard : ShardAllocs)
      Total += Shard->footprintBytes();
    return Total;
  }

  /// True if \p A and \p B were placed in the same L2 cache block.
  bool sameBlock(const void *A, const void *B) const {
    return Heap.blockOf(A) == Heap.blockOf(B);
  }

  /// True if \p A and \p B were placed on the same VM page.
  bool samePage(const void *A, const void *B) const {
    uint64_t PageA = Heap.pageOf(A);
    return PageA != 0 && PageA == Heap.pageOf(B);
  }

private:
  /// Shard constructor (shards 1..N-1 of a sharded allocator).
  CcAllocator(const CacheParams &Params, heap::CcStrategy Strategy,
              heap::SlabSource *Slabs, uint32_t ShardId)
      : Heap(heap::HeapConfig{Params.PageBytes, Params.BlockBytes}, Slabs,
             ShardId),
        Strategy(Strategy) {}

  /// Shared slab source of a sharded allocator; null in single-shard
  /// mode. Declared before Heap: shard 0's heap draws from it.
  std::unique_ptr<heap::SlabSource> SharedSlabs;
  heap::CcHeap Heap;
  heap::CcStrategy Strategy;
  /// Shards 1..N-1 (shard 0 is this object); empty in single-shard mode.
  std::vector<std::unique_ptr<CcAllocator>> ShardAllocs;
};

/// Process-wide default allocator used by the free functions below.
CcAllocator &defaultAllocator();

/// The paper's C-style interface (Figure 4):
/// `list = (struct List *)ccmalloc(sizeof(struct List), b);`
void *ccmalloc(size_t Size, const void *Near);
void ccfree(void *Ptr);

} // namespace ccl

#endif // CCL_CORE_CCALLOCATOR_H
