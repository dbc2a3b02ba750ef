//===- tests/ccmalloc_test.cpp - CcAllocator / ccmalloc API tests ------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "core/CcAllocator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace ccl;

namespace {

struct ListNode {
  ListNode *Forward;
  ListNode *Back;
  void *Payload;
};

} // namespace

TEST(CcAllocator, CoLocatesWithHint) {
  CcAllocator Alloc;
  void *A = Alloc.ccmalloc(16);
  void *B = Alloc.ccmalloc(16, A);
  EXPECT_EQ(Alloc.heap().blockOf(A), Alloc.heap().blockOf(B));
  EXPECT_NE(Alloc.heap().pageOf(A), 0u);
  EXPECT_EQ(Alloc.heap().pageOf(A), Alloc.heap().pageOf(B));
}

TEST(CcAllocator, PaperFigure4Pattern) {
  // The addList() loop of Figure 4: each cell allocated near the
  // previous one.
  CcAllocator Alloc(CacheParams(), heap::CcStrategy::NewBlock);
  std::vector<ListNode *> Cells;
  ListNode *Prev = nullptr;
  for (int I = 0; I < 32; ++I) {
    auto *Cell = static_cast<ListNode *>(
        Alloc.ccmalloc(sizeof(ListNode), Prev));
    Cell->Back = Prev;
    Cell->Forward = nullptr;
    Cell->Payload = nullptr;
    if (Prev)
      Prev->Forward = Cell;
    Cells.push_back(Cell);
    Prev = Cell;
  }
  // Count same-block neighbors: with 24B cells (+8 header) in 64B
  // blocks, a good fraction of consecutive pairs must share a block.
  int SameBlock = 0;
  for (size_t I = 1; I < Cells.size(); ++I)
    SameBlock +=
        Alloc.heap().blockOf(Cells[I - 1]) == Alloc.heap().blockOf(Cells[I]);
  EXPECT_GE(SameBlock, 8);
  // And all cells should sit on very few pages.
  EXPECT_LE(Alloc.stats().PagesAllocated, 2u);
}

TEST(CcAllocator, NullHintBehavesLikeMalloc) {
  CcAllocator Alloc;
  void *P = Alloc.ccmalloc(32, nullptr);
  ASSERT_NE(P, nullptr);
  std::memset(P, 1, 32);
  EXPECT_EQ(Alloc.stats().NearCalls, 0u);
}

TEST(CcAllocator, FreeAndReuse) {
  CcAllocator Alloc;
  void *P = Alloc.ccmalloc(24);
  Alloc.ccfree(P);
  void *Q = Alloc.ccmalloc(24);
  EXPECT_EQ(P, Q);
}

TEST(CcAllocator, FootprintGrowsWithPages) {
  CcAllocator Alloc;
  uint64_t Before = Alloc.footprintBytes();
  for (int I = 0; I < 2000; ++I)
    Alloc.ccmalloc(56);
  EXPECT_GT(Alloc.footprintBytes(), Before);
  EXPECT_EQ(Alloc.footprintBytes(),
            Alloc.stats().PagesAllocated * Alloc.heap().config().PageBytes);
}

TEST(CcAllocator, BlockBytesFollowCacheParams) {
  CacheParams P;
  P.BlockBytes = 128;
  CcAllocator Alloc(P);
  EXPECT_EQ(Alloc.heap().config().BlockBytes, 128u);
  void *A = Alloc.ccmalloc(40);
  void *B = Alloc.ccmalloc(40, A);
  // 48B chunks: two fit in a 128B block.
  EXPECT_EQ(Alloc.heap().blockOf(A), Alloc.heap().blockOf(B));
}

TEST(CcAllocatorGlobal, DefaultInstanceWorks) {
  void *A = ccl::ccmalloc(16, nullptr);
  ASSERT_NE(A, nullptr);
  void *B = ccl::ccmalloc(16, A);
  EXPECT_EQ(defaultAllocator().heap().blockOf(A),
            defaultAllocator().heap().blockOf(B));
  ccl::ccfree(B);
  ccl::ccfree(A);
}

TEST(CcAllocator, SameBlockFalseForDistantObjects) {
  CcAllocator Alloc;
  void *A = Alloc.ccmalloc(56);
  void *B = Alloc.ccmalloc(56); // Next block (56+8 = 64 fills a block).
  EXPECT_NE(Alloc.heap().blockOf(A), Alloc.heap().blockOf(B));
}

TEST(CcAllocator, SamePageFalseForForeign) {
  CcAllocator Alloc;
  void *A = Alloc.ccmalloc(16);
  int Local;
  EXPECT_NE(Alloc.heap().pageOf(A), 0u);
  EXPECT_EQ(Alloc.heap().pageOf(&Local), 0u);
}
