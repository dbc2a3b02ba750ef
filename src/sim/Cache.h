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
/// Hot-path layout: tags live in a contiguous per-set array (one 64-bit
/// word per way, with the valid bit folded in as an impossible sentinel
/// value), so the hit scan touches a single host cache line for any
/// realistic associativity. LRU timestamps and dirty bits are kept in
/// parallel arrays that only the hit/fill bookkeeping touches. Set
/// indexing is mask-and-shift (the configuration validator guarantees a
/// power-of-two set count). All statistics are bit-identical to the
/// original scalar implementation; see tests/sim_golden_test.cpp.
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
  CacheAccessResult access(uint64_t Addr, bool IsWrite);

  /// Looks up without modifying replacement state or contents.
  bool contains(uint64_t Addr) const;

  /// Installs the block containing \p Addr (used for prefetch fills).
  /// Returns eviction info like access().
  CacheAccessResult install(uint64_t Addr, bool Dirty = false);

  /// Removes the block containing \p Addr if present. Returns true if the
  /// removed block was dirty.
  bool invalidate(uint64_t Addr);

  /// Empties the cache and resets statistics.
  void reset();

  /// Fast-path probe: true iff the block containing \p Addr sits in its
  /// set's most-recently-used way. Never modifies any state; a true
  /// result must be followed by commitMruHit() with the same address.
  bool mruMatches(uint64_t Addr) const {
    uint64_t Block = Addr >> BlockShift;
    uint64_t SetIdx = Block & SetMask;
    return Tags[SetIdx * Assoc + Mru[SetIdx]] == Block;
  }

  /// Commits the access after mruMatches(\p Addr) returned true:
  /// identical bookkeeping to a hit found by the full access() scan.
  void commitMruHit(uint64_t Addr, bool IsWrite) {
    uint64_t Block = Addr >> BlockShift;
    uint64_t SetIdx = Block & SetMask;
    uint64_t Idx = SetIdx * Assoc + Mru[SetIdx];
    LastUse[Idx] = ++UseClock;
    DirtyBits[Idx] |= uint8_t(IsWrite);
    ++Hits;
  }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t evictions() const { return Evictions; }
  uint64_t writebacks() const { return Writebacks; }
  double missRate() const {
    uint64_t Total = Hits + Misses;
    return Total == 0 ? 0.0 : static_cast<double>(Misses) / Total;
  }

private:
  /// Tag value stored for an invalid way. No real block can collide: a
  /// block address is a byte address shifted right by BlockShift >= 4.
  static constexpr uint64_t EmptyTag = ~0ULL;

  CacheConfig Config;
  uint64_t SetMask;   ///< numSets - 1 (power of two guaranteed).
  uint32_t BlockShift;///< log2(BlockBytes).
  uint32_t Assoc;
  /// Per-way tag words, contiguous per set: the hit scan reads only this.
  std::vector<uint64_t> Tags;
  /// Per-way LRU timestamps, parallel to Tags.
  std::vector<uint64_t> LastUse;
  /// Per-way dirty flags, parallel to Tags.
  std::vector<uint8_t> DirtyBits;
  /// Per-set most-recently-used way, checked first by the fast path.
  std::vector<uint32_t> Mru;
  uint64_t UseClock = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Writebacks = 0;
};

} // namespace ccl::sim

#endif // CCL_SIM_CACHE_H
