//===- sim/Tlb.cpp - Fully-associative TLB model ---------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "sim/Tlb.h"

using namespace ccl::sim;

Tlb::Tlb(const TlbConfig &Config)
    : Config(Config), PageShift(log2Exact(Config.PageBytes)),
      Pages(Config.Entries + 1, EmptyPage), Prev(Config.Entries + 1),
      Next(Config.Entries + 1), Sentinel(Config.Entries) {
  assert(isPowerOf2(Config.PageBytes) && "page size must be a power of two");
  assert(Config.Entries > 0 && "TLB needs at least one entry");
  Prev[Sentinel] = Next[Sentinel] = Sentinel;
}

bool Tlb::accessSlow(uint64_t Page) {
  // The index is stale-tolerant: entries for evicted pages are left in
  // place and filtered by the Pages[] check here, so the miss path never
  // pays FlatMap64's backward-shift erase. The table is bounded by the
  // number of distinct pages ever touched, not by TLB capacity. Hit/miss
  // classification still depends only on the resident set and recency
  // order, so statistics are unchanged. One probe finds the page's index
  // entry or inserts it pointing at the sentinel, whose page never
  // matches; a miss then repoints the same entry.
  uint64_t &Slot = Index.findOrInsert(Page, Sentinel);
  uint32_t N = uint32_t(Slot);
  if (Pages[N] == Page) {
    ++Hits;
    unlink(N);
    pushFront(N);
    return true;
  }

  ++Misses;
  if (Used < Config.Entries) {
    N = Used++;
  } else {
    N = Prev[Sentinel]; // True LRU victim.
    unlink(N);
  }
  Pages[N] = Page;
  Slot = N;
  pushFront(N);
  return false;
}

void Tlb::reset() {
  std::fill(Pages.begin(), Pages.end(), EmptyPage);
  Prev[Sentinel] = Next[Sentinel] = Sentinel;
  Index.clear();
  Used = 0;
  Hits = Misses = 0;
}
