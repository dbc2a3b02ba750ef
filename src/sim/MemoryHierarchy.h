//===- sim/MemoryHierarchy.h - Two-level memory hierarchy ------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace-driven two-level memory hierarchy: L1 + L2 LRU caches, a TLB,
/// an optional next-line hardware prefetcher, software-prefetch support
/// with latency-overlap modeling, and busy/stall cycle attribution.
///
/// Workloads drive it with real virtual addresses (see AccessPolicy.h), so
/// layout decisions made by ccmalloc/ccmorph translate directly into set
/// indices and miss counts.
///
/// Hot path: read(), write() and replay() share one inline access body
/// (accessRange -> accessBlock). Each L1 block is translated through a
/// 16-entry memo of the first-touch unit map, then probes the TLB's
/// most-recently-used page, L1 and, on an L1 miss, L2; each cache probe
/// is an inline scan of one set's tag words. An L2 miss with no
/// prefetch in flight and no next-line prefetcher is charged inline
/// too, so only translation-memo misses, TLB misses and the prefetch
/// bookkeeping leave the header. replay() is one pass: the trace
/// cursor decodes each record straight into the access body, with no
/// decoded frame in between. There is no clock variable: every cycle
/// charged lands in one SimStats field, and now() is their sum.
/// tests/sim_golden_test.cpp locks the statistics down.
///
/// Telemetry: attachObserver() hooks an obs::SimObserver into the
/// hierarchy. accessRange is one template over whether an observer is
/// attached: the observed instantiation walks the same blocks through
/// the same accessBlock and also reports each access and L2 eviction, so
/// its statistics are bit-identical. Only MemoryHierarchy.cpp
/// instantiates it; unobserved runs pay one null compare per call. See
/// obs/Attribution.h for the sink.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SIM_MEMORYHIERARCHY_H
#define CCL_SIM_MEMORYHIERARCHY_H

#include "obs/Observer.h"
#include "sim/Cache.h"
#include "sim/SimStats.h"
#include "sim/Tlb.h"
#include "sim/TraceBuffer.h"
#include "support/FlatMap.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ccl::sim {

/// A two-level blocking cache hierarchy with cycle accounting.
///
/// Cycle model: each access is charged the L1 hit latency as busy time;
/// an L1 miss adds the L2 hit latency as L1 stall; an L2 miss adds the
/// memory latency as L2 stall. Prefetched blocks carry a ready-cycle;
/// demand accesses that find an in-flight block stall only for the
/// residual cycles (this is how both the greedy software prefetching of
/// Luk & Mowry and the hardware next-line prefetcher hide latency).
class MemoryHierarchy {
public:
  explicit MemoryHierarchy(const HierarchyConfig &Config);

  const HierarchyConfig &config() const { return Config; }

  /// Advances the clock by \p Cycles of computation (busy) time.
  void tick(uint64_t Cycles) { Stats.BusyCycles += Cycles; }

  /// Simulates a data read of \p Size bytes at \p Addr. Accesses that
  /// span multiple L1 blocks touch each block once.
  void read(uint64_t Addr, uint64_t Size) {
    if (Obs != nullptr) [[unlikely]]
      return accessObserved(Addr, Size, false);
    accessRange<false>(Addr, Size, false);
  }

  /// Simulates a data write of \p Size bytes at \p Addr (write-allocate).
  void write(uint64_t Addr, uint64_t Size) {
    if (Obs != nullptr) [[unlikely]]
      return accessObserved(Addr, Size, true);
    accessRange<false>(Addr, Size, true);
  }

  /// Replays a recorded trace: bit-identical to issuing the same
  /// read()/write()/prefetch()/tick() calls in recorded order, each
  /// record probed as soon as it is decoded — the record-once/replay-many
  /// engine the figure benches use to evaluate many sweep points against
  /// one native recording. Because replay preserves the recorded order, the
  /// canonical first-touch address remap resolves identically to a live
  /// run (locked down by tests/trace_test.cpp and sim_golden_test).
  ///
  /// One replay is one serial walk. Parallelism comes from running many
  /// of them at once: a sealed buffer is read-only, so the benches give
  /// each sweep cell its own hierarchy and cursor on a SweepRunner
  /// worker (tests/trace_v2_test.cpp checks concurrent cells).
  void replay(TraceView View) {
    TraceCursor Cursor(View);
    replay(Cursor, View.records());
  }

  /// Replays at most \p MaxRecords records from \p Cursor, advancing it.
  /// Lets one recording be consumed in phases (warmup, then a measured
  /// window) with now()/stats() snapshots between them.
  void replay(TraceCursor &Cursor, size_t MaxRecords);

  /// Issues a software prefetch for the L2 block containing \p Addr.
  void prefetch(uint64_t Addr);

  /// Current simulated cycle: the sum of the attributed cycles.
  uint64_t now() const { return Stats.totalCycles(); }

  const SimStats &stats() const { return Stats; }
  const Cache &l1() const { return L1; }
  const Cache &l2() const { return L2; }
  const Tlb &tlb() const { return TlbModel; }

  /// Attaches (or, with null, detaches) a telemetry observer.
  ///
  /// Contract: while an observer is attached, every access — a
  /// read()/write() call or a replayed record — runs the observed
  /// instantiation of accessRange, which simulates each block exactly
  /// as an unobserved access does, so all statistics remain
  /// bit-identical to an unobserved run (locked down by
  /// tests/sim_golden_test.cpp), and a replay emits the same events as
  /// the live calls it records (tests/trace_v2_test.cpp). With no
  /// observer attached the only cost is one predictable null compare per
  /// read()/write() or replay() call, plus one per prefetched block
  /// retired into the caches. The observer survives reset().
  void attachObserver(obs::SimObserver *Observer) { Obs = Observer; }
  obs::SimObserver *observer() const { return Obs; }

  /// Empties caches, TLB, in-flight prefetches, and statistics.
  void reset();

private:
  /// What the observer needs to know about one block access that the
  /// statistics counters do not already say.
  struct BlockOutcome {
    obs::AccessLevel Level = obs::AccessLevel::L1Hit;
    bool TlbMiss = false;
    /// The L2 block this access displaced, if any.
    CacheAccessResult L2Victim;
  };

  /// Touches each L1 block of [Addr, Addr + Size) once; a zero size
  /// touches one block. \p Observed also reports each block access, and
  /// the L2 block it displaced, to Obs; that instantiation lives only in
  /// MemoryHierarchy.cpp (accessObserved() and replay()), so read() and
  /// write() inline just the unobserved loop.
  template <bool Observed>
  void accessRange(uint64_t Addr, uint64_t Size, bool IsWrite) {
    uint64_t End = Addr + (Size != 0 ? Size : 1);
    uint64_t First = Addr >> L1BlockShift;
    uint64_t Last = (End - 1) >> L1BlockShift;
    for (uint64_t Block = First; Block <= Last; ++Block) {
      uint64_t Base = Block << L1BlockShift;
      uint64_t Mapped = translate(Base);
      if constexpr (Observed) {
        uint64_t Before = now();
        InObservedAccess = true;
        BlockOutcome Out = accessBlock(Mapped, IsWrite);
        InObservedAccess = false;
        uint64_t Lo = std::max(Addr, Base);
        uint64_t Hi = std::min(End, Base + Config.L1.BlockBytes);
        Obs->onAccess({Lo, Mapped + (Lo - Base), uint32_t(Hi - Lo), IsWrite,
                       Out.TlbMiss, Out.Level, uint32_t(now() - Before)});
        // The evictions follow the access that caused them, in the order
        // they happened: the fill's victim (always distinct from the
        // block just filled), then those of the prefetched blocks the
        // in-flight sweep retired, one of which may be that block.
        if (Out.L2Victim.Evicted)
          Obs->onEvict({Out.L2Victim.WritebackVictim,
                        Out.L2Victim.VictimBlock << L2BlockShift});
        for (const obs::EvictEvent &Event : SweepEvictions)
          Obs->onEvict(Event);
        SweepEvictions.clear();
      } else {
        accessBlock(Mapped, IsWrite);
      }
    }
  }

  /// read()/write() with an observer attached: accessRange<true>.
  void accessObserved(uint64_t Addr, uint64_t Size, bool IsWrite);

  /// replay()'s one pass: decodes up to \p MaxRecords records and issues
  /// each through accessRange<Observed> as soon as it is decoded.
  template <bool Observed>
  void replayRecords(TraceCursor &Cursor, size_t MaxRecords);

  /// Simulates one access to the L1 block at mapped address \p Addr.
  BlockOutcome accessBlock(uint64_t Addr, bool IsWrite) {
    BlockOutcome Out;
    if (IsWrite)
      ++Stats.Writes;
    else
      ++Stats.Reads;

    if (Config.Tlb.Enabled && !TlbModel.access(Addr)) {
      Out.TlbMiss = true;
      ++Stats.TlbMisses;
      Stats.TlbStallCycles += Config.Tlb.MissLatency;
    }

    // The L1 hit latency is charged on every access as pipeline busy
    // time.
    Stats.BusyCycles += Config.L1.HitLatency;

    if (L1.access(Addr, IsWrite).Hit) {
      ++Stats.L1Hits;
      return Out;
    }
    ++Stats.L1Misses;
    Stats.L1StallCycles += Config.L2.HitLatency;

    CacheAccessResult L2Result = L2.access(Addr, IsWrite);
    if (L2Result.Hit) {
      ++Stats.L2Hits;
      Out.Level = obs::AccessLevel::L2Hit;
      return Out;
    }
    if (L2Result.WritebackVictim)
      ++Stats.Writebacks;
    Out.L2Victim = L2Result;
    if (!InFlight.empty() || Config.Prefetch.NextLineDegree != 0) {
      Out.Level = handleL2Miss(Addr >> L2BlockShift);
      return Out;
    }
    // Nothing in flight can hide the latency and nothing is prefetched:
    // a full memory stall.
    ++Stats.L2Misses;
    Stats.L2StallCycles += Config.MemoryLatency;
    Out.Level = obs::AccessLevel::Memory;
    return Out;
  }

  /// Handles an access to L2 block \p Block that missed both caches
  /// while prefetches are in flight or the next-line prefetcher is on;
  /// charges residual latency if the block is in flight, otherwise a
  /// full memory stall, and asks the hardware prefetcher to act. Returns
  /// how the latency was (partially) hidden.
  obs::AccessLevel handleL2Miss(uint64_t Block);
  void installBoth(uint64_t Addr, bool Dirty);
  /// Prevents the in-flight map from growing without bound when software
  /// prefetches are issued but never consumed.
  void sweepInFlight();

  /// Deterministic virtual-to-simulated-physical translation: real
  /// process addresses vary run to run (ASLR, allocator), which would
  /// make simulated set indices nondeterministic. Addresses are remapped
  /// at cache-capacity granularity in first-touch order, preserving all
  /// intra-region offsets — so block sharing, page locality, and
  /// coloring (frames are capacity-aligned) are untouched while results
  /// become exactly reproducible.
  uint64_t translate(uint64_t Addr) {
    uint64_t Unit = Addr >> UnitShift;
    const UnitMemoEntry &Memo = UnitMemo[Unit % UnitMemoSlots];
    if (Memo.Unit == Unit) [[likely]]
      return Memo.MappedBase | (Addr & UnitMask);
    return translateSlow(Addr);
  }

  /// Looks the unit up in UnitMap (assigning the next mapped unit on
  /// first touch) and refills its memo slot.
  uint64_t translateSlow(uint64_t Addr);

  HierarchyConfig Config;
  Cache L1;
  Cache L2;
  Tlb TlbModel;
  SimStats Stats;
  /// Telemetry sink; null (the common case) means fully disabled.
  obs::SimObserver *Obs = nullptr;
  /// L2 block address -> cycle at which the prefetched fill completes.
  FlatMap64 InFlight;
  uint64_t TranslationUnitBytes;
  uint32_t UnitShift;   ///< log2(TranslationUnitBytes).
  uint64_t UnitMask;    ///< TranslationUnitBytes - 1.
  uint32_t L1BlockShift;///< log2(L1 block size).
  uint32_t L2BlockShift;///< log2(L2 block size).
  /// Host unit -> mapped unit, in first-touch order.
  FlatMap64 UnitMap;
  uint64_t NextUnit = 1; // Unit 0 reserved so address 0 stays unique.

  /// Direct-mapped memo of UnitMap, indexed by the unit's low bits. A
  /// tree or heap spans a handful of units, and a walk over it switches
  /// units on most steps; the memo keeps those switches off the hash map.
  static constexpr uint64_t UnitMemoSlots = 16;
  struct UnitMemoEntry {
    /// Host unit cached here; ~0 (no real unit) marks an empty slot.
    uint64_t Unit = ~0ULL;
    /// Mapped unit shifted into place: the high bits of the mapped
    /// address.
    uint64_t MappedBase = 0;
  };
  UnitMemoEntry UnitMemo[UnitMemoSlots];

  /// Set while accessRange<true> simulates a block: installBoth() then
  /// holds the in-flight sweep's evictions in SweepEvictions until the
  /// access event is out. Kept last: only the observed path uses them.
  bool InObservedAccess = false;
  std::vector<obs::EvictEvent> SweepEvictions;
};

} // namespace ccl::sim

#endif // CCL_SIM_MEMORYHIERARCHY_H
