//===- sim/Tlb.cpp - Fully-associative TLB model ---------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "sim/Tlb.h"

#include <algorithm>

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
  if (Page >= Index.size()) {
    assert(Page < (uint64_t(1) << 28) &&
           "page index is dense; pass translated addresses");
    Index.resize(std::max<uint64_t>(Page + 1, 2 * Index.size()), Sentinel);
  }
  uint32_t &Slot = Index[Page];
  uint32_t N = Slot;
  if (N != Sentinel) {
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
    Index[Pages[N]] = Sentinel;
  }
  Pages[N] = Page;
  Slot = N;
  pushFront(N);
  return false;
}

void Tlb::reset() {
  // Only resident pages have index entries.
  for (uint32_t N = 0; N < Used; ++N)
    Index[Pages[N]] = Sentinel;
  std::fill(Pages.begin(), Pages.end(), EmptyPage);
  Prev[Sentinel] = Next[Sentinel] = Sentinel;
  Used = 0;
  Hits = Misses = 0;
}
