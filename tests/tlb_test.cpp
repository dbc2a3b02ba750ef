//===- tests/tlb_test.cpp - TLB model unit tests -----------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "sim/Tlb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>

using namespace ccl::sim;

namespace {
TlbConfig small() { return {true, 4, 4096, 30}; }

/// The textbook fully-associative LRU TLB: a recency list scanned on
/// every access, most recent first.
class ListLru {
public:
  explicit ListLru(size_t Entries) : Entries(Entries) {}

  bool access(uint64_t Page) {
    auto It = std::find(Recency.begin(), Recency.end(), Page);
    bool Hit = It != Recency.end();
    if (Hit)
      Recency.erase(It);
    else if (Recency.size() == Entries)
      Recency.pop_back();
    Recency.push_front(Page);
    return Hit;
  }

  void reset() { Recency.clear(); }

private:
  size_t Entries;
  std::list<uint64_t> Recency;
};

// Hermetic 64-bit LCG (MMIX constants).
struct Lcg {
  uint64_t State;
  uint64_t bounded(uint64_t N) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return (State >> 17) % N;
  }
};
} // namespace

TEST(Tlb, ColdMissThenHit) {
  Tlb T(small());
  EXPECT_FALSE(T.access(0x1000));
  EXPECT_TRUE(T.access(0x1000));
  EXPECT_TRUE(T.access(0x1FFF)); // Same page.
  EXPECT_FALSE(T.access(0x2000)); // Next page.
  EXPECT_EQ(T.hits(), 2u);
  EXPECT_EQ(T.misses(), 2u);
}

TEST(Tlb, CapacityEviction) {
  Tlb T(small());
  for (uint64_t P = 0; P < 5; ++P)
    T.access(P * 4096); // 5 pages into a 4-entry TLB.
  EXPECT_FALSE(T.access(0)); // Page 0 was LRU-evicted.
}

TEST(Tlb, LruKeepsRecentlyUsed) {
  Tlb T(small());
  for (uint64_t P = 0; P < 4; ++P)
    T.access(P * 4096);
  T.access(0);           // Refresh page 0.
  T.access(4 * 4096);    // Evicts page 1 (LRU), not 0.
  EXPECT_TRUE(T.access(0));
  EXPECT_FALSE(T.access(1 * 4096));
}

TEST(Tlb, FullCoverageWithinCapacity) {
  Tlb T(small());
  for (int Round = 0; Round < 3; ++Round)
    for (uint64_t P = 0; P < 4; ++P)
      T.access(P * 4096);
  EXPECT_EQ(T.misses(), 4u); // Only the cold misses.
}

TEST(Tlb, ResetClears) {
  Tlb T(small());
  T.access(0);
  T.reset();
  EXPECT_EQ(T.hits() + T.misses(), 0u);
  EXPECT_FALSE(T.access(0));
}

TEST(Tlb, MatchesListLruModel) {
  // Every hit and miss, and the totals, match the scanned list, with
  // pages drawn from three times the capacity so evictions are common,
  // and across a reset() midway.
  const uint64_t PageBytes = 4096;
  for (uint32_t Entries : {1u, 4u, 64u}) {
    SCOPED_TRACE("entries " + std::to_string(Entries));
    Tlb T({true, Entries, uint32_t(PageBytes), 30});
    ListLru Model(Entries);
    Lcg Rng{0x71B + Entries};
    uint64_t Hits = 0, Misses = 0;
    const int Steps = 20000;
    for (int I = 0; I < Steps; ++I) {
      if (I == Steps / 2) {
        T.reset();
        Model.reset();
        Hits = Misses = 0;
      }
      uint64_t Page = Rng.bounded(3 * Entries);
      uint64_t Addr = Page * PageBytes + Rng.bounded(PageBytes);
      bool Expected = Model.access(Page);
      ASSERT_EQ(T.access(Addr), Expected) << "step " << I;
      ++(Expected ? Hits : Misses);
    }
    EXPECT_EQ(T.hits(), Hits);
    EXPECT_EQ(T.misses(), Misses);
  }
}

TEST(Tlb, EvictedPageMissesWhenTouchedAgain) {
  // Eviction must drop the victim from the page index, or its next
  // touch would be taken for a hit on the slot it used to hold.
  Tlb T(small());
  for (uint64_t P = 1; P <= 4; ++P)
    T.access(P * 4096);
  EXPECT_FALSE(T.access(5 * 4096)); // Takes LRU page 1's slot.
  EXPECT_FALSE(T.access(1 * 4096));
  EXPECT_TRUE(T.access(5 * 4096));
  EXPECT_EQ(T.misses(), 6u);
}

TEST(Tlb, IndexGrowsPastItsSize) {
  // A page number beyond every page seen so far extends the index;
  // pages already resident keep their entries.
  Tlb T(small());
  EXPECT_FALSE(T.access(2 * 4096));
  EXPECT_FALSE(T.access(100000 * 4096));
  EXPECT_FALSE(T.access(3 * 4096));
  EXPECT_TRUE(T.access(2 * 4096));
  EXPECT_TRUE(T.access(100000 * 4096));
  EXPECT_FALSE(T.access(100001 * 4096));
  EXPECT_EQ(T.hits(), 2u);
  EXPECT_EQ(T.misses(), 4u);
}
