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
///   auto *Cell = static_cast<ListCell *>(
///       Alloc.ccmalloc(sizeof(ListCell), /*Near=*/Prev));
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

namespace ccl {

/// Cache-conscious allocator facade over one page-structured heap: the
/// cache geometry picks the heap's page and block sizes, and a fixed
/// strategy resolves a full hinted block. Single-threaded and fully
/// deterministic, like the CcHeap it wraps.
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

  /// The paper's ccmalloc: allocate \p Size bytes near \p Near.
  void *ccmalloc(size_t Size, const void *Near) {
    return Heap.allocateNear(Size, Near, Strategy);
  }

  /// Plain allocation (equivalent to passing a null hint).
  void *ccmalloc(size_t Size) { return Heap.allocate(Size); }

  void ccfree(void *Ptr) { Heap.deallocate(Ptr); }

  const heap::CcHeap &heap() const { return Heap; }
  const heap::HeapStats &stats() const { return Heap.stats(); }
  uint64_t footprintBytes() const { return Heap.footprintBytes(); }

private:
  heap::CcHeap Heap;
  heap::CcStrategy Strategy;
};

/// Process-wide default allocator used by the free functions below.
CcAllocator &defaultAllocator();

/// The paper's C-style interface (Figure 4):
/// `list = (struct List *)ccmalloc(sizeof(struct List), b);`
void *ccmalloc(size_t Size, const void *Near);
void ccfree(void *Ptr);

} // namespace ccl

#endif // CCL_CORE_CCALLOCATOR_H
