//===- sim/CacheConfig.h - Cache hierarchy configuration -------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration records for the trace-driven memory-hierarchy simulator,
/// including the two presets used by the paper: the Sun Ultraserver E5000
/// memory system (Section 4.1) and the RSIM parameters (Table 1).
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SIM_CACHECONFIG_H
#define CCL_SIM_CACHECONFIG_H

#include "support/Align.h"

#include <cstdint>

namespace ccl::sim {

/// Geometry and hit latency of a single cache level.
struct CacheConfig {
  uint64_t CapacityBytes = 0;
  uint32_t BlockBytes = 0;
  uint32_t Associativity = 1;
  /// Cycles charged when an access hits in this level.
  uint32_t HitLatency = 1;

  uint64_t numSets() const {
    assert(CapacityBytes % (uint64_t(BlockBytes) * Associativity) == 0 &&
           "capacity must be a multiple of block size times associativity");
    return CapacityBytes / (uint64_t(BlockBytes) * Associativity);
  }

  uint64_t numBlocks() const { return CapacityBytes / BlockBytes; }

  bool isValid() const {
    return CapacityBytes > 0 && isPowerOf2(CapacityBytes) &&
           isPowerOf2(BlockBytes) && isPowerOf2(Associativity) &&
           CapacityBytes >= uint64_t(BlockBytes) * Associativity;
  }
};

/// TLB model parameters.
struct TlbConfig {
  bool Enabled = true;
  uint32_t Entries = 64;
  uint32_t PageBytes = 8192;
  /// Cycles charged on a TLB miss (software refill on UltraSPARC).
  uint32_t MissLatency = 40;
};

/// Hardware prefetcher model parameters (next-line at L2).
struct PrefetchConfig {
  /// Number of sequential next blocks fetched on each L2 demand miss.
  /// Zero disables hardware prefetching.
  uint32_t NextLineDegree = 0;
};

/// A complete two-level hierarchy description.
struct HierarchyConfig {
  CacheConfig L1;
  CacheConfig L2;
  /// Additional cycles for an access that misses in L2 (memory latency).
  uint32_t MemoryLatency = 64;
  /// Cycles charged for issuing a software prefetch instruction.
  uint32_t PrefetchIssueCost = 1;
  TlbConfig Tlb;
  PrefetchConfig Prefetch;

  bool isValid() const {
    return L1.isValid() && L2.isValid() && L2.BlockBytes >= L1.BlockBytes;
  }

  /// Sun Ultraserver E5000 (paper Section 4.1): 16KB direct-mapped L1
  /// with 16-byte blocks (1-cycle hit), 1MB direct-mapped L2 with
  /// 64-byte blocks (6 additional cycles), 64-cycle memory latency,
  /// 8KB pages.
  static HierarchyConfig ultraSparcE5000() {
    HierarchyConfig Config;
    Config.L1 = {16 * 1024, 16, 1, 1};
    Config.L2 = {1024 * 1024, 64, 1, 6};
    Config.MemoryLatency = 64;
    Config.Tlb = {true, 64, 8192, 40};
    return Config;
  }

  /// RSIM simulation parameters (paper Table 1): 16KB direct-mapped L1,
  /// 128-byte lines, 1-cycle hit / 9-cycle miss; 256KB 2-way L2,
  /// 60-cycle L2 miss.
  static HierarchyConfig rsimTable1() {
    HierarchyConfig Config;
    Config.L1 = {16 * 1024, 128, 1, 1};
    Config.L2 = {256 * 1024, 128, 2, 9};
    Config.MemoryLatency = 60;
    Config.Tlb = {true, 64, 8192, 40};
    return Config;
  }
};

} // namespace ccl::sim

#endif // CCL_SIM_CACHECONFIG_H
