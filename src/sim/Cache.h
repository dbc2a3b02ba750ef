//===- sim/Cache.h - One set-associative LRU cache level -------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single set-associative, LRU-replacement cache level. The
/// MemoryHierarchy composes two of these into the paper's two-level
/// blocking configuration.
///
/// Hot-path layout: each way is one 64-bit word, (block << 1) | dirty,
/// and a set's ways are kept in recency order, most recent first. A hit
/// moves its word to the front; a fill takes the first invalid way, else
/// the last (least recently used) one, and moves it to the front. True
/// LRU then needs no timestamps: the tag, the recency and the dirty bit
/// a probe uses sit in the same words, and a direct-mapped probe reads
/// and writes one word. Set indexing is mask-and-shift (the
/// configuration validator guarantees power-of-two geometry). An LRU
/// set's contents depend only on its recency order, so all statistics
/// are bit-identical to the timestamp implementation this replaced; see
/// tests/sim_golden_test.cpp and cache_test's reference model.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SIM_CACHE_H
#define CCL_SIM_CACHE_H

#include "sim/CacheConfig.h"

#include <cstdint>
#include <vector>

namespace ccl::sim {

/// Outcome of a cache lookup-with-install.
struct CacheAccessResult {
  bool Hit = false;
  /// True if the install evicted a dirty block (write-back needed).
  bool WritebackVictim = false;
  /// Block address of the evicted block, valid if a block was evicted.
  uint64_t VictimBlock = 0;
  bool Evicted = false;
};

/// A set-associative cache with true-LRU replacement.
///
/// Addresses are full byte addresses; the cache internally reduces them to
/// block addresses using the configured block size.
class Cache {
public:
  explicit Cache(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }

  /// Looks up \p Addr; on miss, installs the block (evicting LRU).
  /// \p IsWrite marks the block dirty on hit or install.
  CacheAccessResult access(uint64_t Addr, bool IsWrite) {
    return lookupOrFill</*Demand=*/true>(Addr, IsWrite);
  }

  /// Looks up without modifying replacement state or contents.
  bool contains(uint64_t Addr) const;

  /// Installs the block containing \p Addr (used for prefetch fills).
  /// Returns eviction info like access() but counts no hit or miss.
  CacheAccessResult install(uint64_t Addr, bool Dirty = false) {
    return lookupOrFill</*Demand=*/false>(Addr, Dirty);
  }

  /// Empties the cache and resets statistics.
  void reset();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t evictions() const { return Evictions; }
  uint64_t writebacks() const { return Writebacks; }

private:
  /// Word stored in an invalid way. No real block can collide: a block
  /// number shifted left by one stays far below 2^64 - 2 for any
  /// address the simulator maps.
  static constexpr uint64_t EmptyWay = ~0ULL;

  /// The one body behind access() (\p Demand counts the hit or miss) and
  /// install() (it does not).
  template <bool Demand>
  CacheAccessResult lookupOrFill(uint64_t Addr, bool Dirty) {
    uint64_t Block = Addr >> BlockShift;
    uint64_t *Set = &Ways[(Block & SetMask) << AssocShift];
    uint64_t Tag = Block << 1;
    // Valid ways form a prefix of the set, so the scan stops at the
    // first invalid way, which is also where a fill goes.
    uint32_t Pos = 0;
    for (; Pos < Assoc; ++Pos) {
      uint64_t Word = Set[Pos];
      if ((Word ^ Tag) <= 1) {
        moveToFront(Set, Pos, Word | uint64_t(Dirty));
        if constexpr (Demand)
          ++Hits;
        return {/*Hit=*/true, false, 0, false};
      }
      if (Word == EmptyWay)
        break;
    }
    if constexpr (Demand)
      ++Misses;
    if (Pos == Assoc)
      --Pos; // Full set: evict the least recently used way.
    uint64_t Victim = Set[Pos];
    moveToFront(Set, Pos, Tag | uint64_t(Dirty));
    CacheAccessResult Result;
    if (Victim != EmptyWay) {
      Result.Evicted = true;
      Result.VictimBlock = Victim >> 1;
      Result.WritebackVictim = (Victim & 1) != 0;
      Writebacks += Victim & 1;
      ++Evictions;
    }
    return Result;
  }

  /// Shifts ways [0, Pos) down one and stores \p Word as the most
  /// recently used way.
  static void moveToFront(uint64_t *Set, uint32_t Pos, uint64_t Word) {
    for (; Pos > 0; --Pos)
      Set[Pos] = Set[Pos - 1];
    Set[0] = Word;
  }

  CacheConfig Config;
  uint64_t SetMask;    ///< numSets - 1 (power of two guaranteed).
  uint32_t BlockShift; ///< log2(BlockBytes).
  uint32_t AssocShift; ///< log2(Associativity).
  uint32_t Assoc;
  /// Way words, set by set, each set in recency order.
  std::vector<uint64_t> Ways;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Writebacks = 0;
};

} // namespace ccl::sim

#endif // CCL_SIM_CACHE_H
