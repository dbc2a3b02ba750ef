//===- sim/SimStats.h - Simulation counters and cycle breakdown -*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregate counters produced by a MemoryHierarchy run, including the
/// busy / L1-stall / L2-stall cycle attribution used to reproduce the
/// stacked bars of the paper's Figure 7.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SIM_SIMSTATS_H
#define CCL_SIM_SIMSTATS_H

#include <cstdint>

namespace ccl::sim {

/// Event counts and attributed cycles for one simulation.
struct SimStats {
  // Event counts.
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t SwPrefetches = 0;
  uint64_t HwPrefetches = 0;
  uint64_t L1Hits = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Hits = 0;
  uint64_t L2Misses = 0;
  /// Demand accesses whose latency was fully hidden by a prefetch.
  uint64_t PrefetchFullHits = 0;
  /// Demand accesses that overlapped with an in-flight prefetch.
  uint64_t PrefetchPartialHits = 0;
  uint64_t TlbMisses = 0;
  uint64_t Writebacks = 0;

  // Attributed cycles.
  uint64_t BusyCycles = 0;
  uint64_t L1StallCycles = 0;
  uint64_t L2StallCycles = 0;
  uint64_t TlbStallCycles = 0;
  uint64_t PrefetchIssueCycles = 0;

  uint64_t totalCycles() const {
    return BusyCycles + L1StallCycles + L2StallCycles + TlbStallCycles +
           PrefetchIssueCycles;
  }

  uint64_t memoryReferences() const { return Reads + Writes; }

  double l1MissRate() const {
    uint64_t Total = L1Hits + L1Misses;
    return Total == 0 ? 0.0 : static_cast<double>(L1Misses) / Total;
  }

  double l2MissRate() const {
    uint64_t Total = L2Hits + L2Misses;
    return Total == 0 ? 0.0 : static_cast<double>(L2Misses) / Total;
  }

  /// Accumulates another run's counters (e.g. summing per-phase deltas).
  SimStats &operator+=(const SimStats &Other) {
    Reads += Other.Reads;
    Writes += Other.Writes;
    SwPrefetches += Other.SwPrefetches;
    HwPrefetches += Other.HwPrefetches;
    L1Hits += Other.L1Hits;
    L1Misses += Other.L1Misses;
    L2Hits += Other.L2Hits;
    L2Misses += Other.L2Misses;
    PrefetchFullHits += Other.PrefetchFullHits;
    PrefetchPartialHits += Other.PrefetchPartialHits;
    TlbMisses += Other.TlbMisses;
    Writebacks += Other.Writebacks;
    BusyCycles += Other.BusyCycles;
    L1StallCycles += Other.L1StallCycles;
    L2StallCycles += Other.L2StallCycles;
    TlbStallCycles += Other.TlbStallCycles;
    PrefetchIssueCycles += Other.PrefetchIssueCycles;
    return *this;
  }

  /// Counters accumulated between two snapshots of the same hierarchy
  /// (\p Before taken earlier than \p After, no reset in between) —
  /// the standard way to isolate one phase of a longer simulation.
  static SimStats delta(const SimStats &Before, const SimStats &After) {
    SimStats Out;
    Out.Reads = After.Reads - Before.Reads;
    Out.Writes = After.Writes - Before.Writes;
    Out.SwPrefetches = After.SwPrefetches - Before.SwPrefetches;
    Out.HwPrefetches = After.HwPrefetches - Before.HwPrefetches;
    Out.L1Hits = After.L1Hits - Before.L1Hits;
    Out.L1Misses = After.L1Misses - Before.L1Misses;
    Out.L2Hits = After.L2Hits - Before.L2Hits;
    Out.L2Misses = After.L2Misses - Before.L2Misses;
    Out.PrefetchFullHits = After.PrefetchFullHits - Before.PrefetchFullHits;
    Out.PrefetchPartialHits =
        After.PrefetchPartialHits - Before.PrefetchPartialHits;
    Out.TlbMisses = After.TlbMisses - Before.TlbMisses;
    Out.Writebacks = After.Writebacks - Before.Writebacks;
    Out.BusyCycles = After.BusyCycles - Before.BusyCycles;
    Out.L1StallCycles = After.L1StallCycles - Before.L1StallCycles;
    Out.L2StallCycles = After.L2StallCycles - Before.L2StallCycles;
    Out.TlbStallCycles = After.TlbStallCycles - Before.TlbStallCycles;
    Out.PrefetchIssueCycles =
        After.PrefetchIssueCycles - Before.PrefetchIssueCycles;
    return Out;
  }

  /// Internal bookkeeping identities that hold for every hierarchy run
  /// (and every delta of one): each reference hits or misses L1, and
  /// each L1 miss is resolved by L2 or beyond. Prefetch-full hits count
  /// as L2 hits, so they are covered by the second identity.
  bool isConsistent() const {
    return Reads + Writes == L1Hits + L1Misses &&
           L1Misses == L2Hits + L2Misses &&
           PrefetchFullHits + PrefetchPartialHits <= L1Misses;
  }
};

} // namespace ccl::sim

#endif // CCL_SIM_SIMSTATS_H
