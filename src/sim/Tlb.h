//===- sim/Tlb.h - Fully-associative TLB model -----------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fully-associative, LRU translation lookaside buffer. The paper notes
/// (Section 3.2.1, 5.4) that co-locating data on the same page improves
/// TLB behaviour, and attributes part of the model's speedup
/// underestimation to unmodeled TLB gains; this model lets the simulator
/// capture that effect.
///
/// Hot-path design: instead of the textbook timestamp scan (O(entries)
/// per access), the TLB keeps a page index plus an intrusive
/// doubly-linked recency list, making every access O(1). The index is a
/// dense vector keyed by page number: the hierarchy translates addresses
/// into units handed out in first-touch order, so the pages it asks
/// about are small integers packed near zero. The index holds exactly
/// the resident pages (an eviction clears the victim's slot), so a
/// lookup is one load with no hash and no stale entries to filter. For
/// a fully-associative LRU array the hit/miss sequence is a function of
/// only the resident page set and its recency order — both maintained
/// exactly here — so the statistics are bit-identical to the scan-based
/// implementation (locked down by tests/sim_golden_test.cpp and
/// tests/tlb_test.cpp's reference model). The common case — consecutive
/// accesses to the most-recently-used page — is an inline compare
/// against the list head.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SIM_TLB_H
#define CCL_SIM_TLB_H

#include "sim/CacheConfig.h"

#include <cstdint>
#include <vector>

namespace ccl::sim {

/// Fully-associative LRU TLB over fixed-size pages. The page index
/// grows to the largest page number seen, so callers pass translated
/// (small) addresses, not raw host ones.
class Tlb {
public:
  explicit Tlb(const TlbConfig &Config);

  /// Translates the page containing \p Addr. Returns true on a hit.
  bool access(uint64_t Addr) {
    uint64_t Page = Addr >> PageShift;
    if (Pages[Next[Sentinel]] == Page) {
      ++Hits;
      return true;
    }
    return accessSlow(Page);
  }

  void reset();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  const TlbConfig &config() const { return Config; }

private:
  /// Page tag stored in unused entries and the sentinel. Unreachable for
  /// real pages: a page number is a byte address shifted right by
  /// PageShift >= 1.
  static constexpr uint64_t EmptyPage = ~0ULL;

  /// Index lookup + LRU-list maintenance for accesses off the MRU page.
  bool accessSlow(uint64_t Page);

  void unlink(uint32_t N) {
    Next[Prev[N]] = Next[N];
    Prev[Next[N]] = Prev[N];
  }

  void pushFront(uint32_t N) {
    Next[N] = Next[Sentinel];
    Prev[N] = Sentinel;
    Prev[Next[Sentinel]] = N;
    Next[Sentinel] = N;
  }

  TlbConfig Config;
  uint32_t PageShift;
  /// Entry slot -> resident page (EmptyPage when unused). Slot Sentinel
  /// is the circular list head: Next[Sentinel] is the MRU entry,
  /// Prev[Sentinel] the LRU entry.
  std::vector<uint64_t> Pages;
  std::vector<uint32_t> Prev;
  std::vector<uint32_t> Next;
  /// Page number -> entry slot holding it, or Sentinel when the page is
  /// not resident. Grown on demand to cover the largest page seen.
  std::vector<uint32_t> Index;
  uint32_t Sentinel;
  /// Number of slots ever used; slots are claimed in order before any
  /// eviction happens.
  uint32_t Used = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace ccl::sim

#endif // CCL_SIM_TLB_H
