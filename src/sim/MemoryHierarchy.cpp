//===- sim/MemoryHierarchy.cpp - Two-level memory hierarchy ---------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "sim/MemoryHierarchy.h"

#include <algorithm>
#include <vector>

using namespace ccl::sim;

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &Config)
    : Config(Config), L1(Config.L1), L2(Config.L2), TlbModel(Config.Tlb) {
  assert(Config.isValid() && "invalid hierarchy configuration");
  // The unit must be a multiple of every structure the simulation keys
  // off an address: L2 frame size (capacity/assoc), L1 capacity, and the
  // VM page size.
  TranslationUnitBytes = std::max<uint64_t>(
      {Config.L2.CapacityBytes, Config.L1.CapacityBytes,
       Config.Tlb.PageBytes});
  UnitShift = log2Exact(TranslationUnitBytes);
  UnitMask = TranslationUnitBytes - 1;
  L1BlockShift = log2Exact(Config.L1.BlockBytes);
  L2BlockShift = log2Exact(Config.L2.BlockBytes);
}

template <bool Observed>
void MemoryHierarchy::replayRecords(TraceCursor &Cursor, size_t MaxRecords) {
  Cursor.consume(MaxRecords, [this](TraceRecord::Kind K, uint64_t Addr,
                                    uint64_t Arg) {
    switch (K) {
    case TraceRecord::Kind::Read:
      accessRange<Observed>(Addr, Arg, false);
      break;
    case TraceRecord::Kind::Write:
      accessRange<Observed>(Addr, Arg, true);
      break;
    case TraceRecord::Kind::Prefetch:
      prefetch(Addr);
      break;
    case TraceRecord::Kind::Tick:
      tick(Arg);
      break;
    }
  });
}

void MemoryHierarchy::replay(TraceCursor &Cursor, size_t MaxRecords) {
  if (Obs != nullptr) [[unlikely]]
    return replayRecords<true>(Cursor, MaxRecords);
  replayRecords<false>(Cursor, MaxRecords);
}

uint64_t MemoryHierarchy::translateSlow(uint64_t Addr) {
  uint64_t Unit = Addr >> UnitShift;
  // Mapped units are handed out in increasing order, so a value equal to
  // NextUnit was inserted just now.
  uint64_t Mapped = UnitMap.findOrInsert(Unit, NextUnit);
  if (Mapped == NextUnit)
    ++NextUnit;
  UnitMemoEntry &Memo = UnitMemo[Unit % UnitMemoSlots];
  Memo = {Unit, Mapped << UnitShift};
  return Memo.MappedBase | (Addr & UnitMask);
}

void MemoryHierarchy::accessObserved(uint64_t Addr, uint64_t Size,
                                     bool IsWrite) {
  accessRange<true>(Addr, Size, IsWrite);
}

ccl::obs::AccessLevel MemoryHierarchy::handleL2Miss(uint64_t Block) {
  if (uint64_t *ReadyAt = InFlight.find(Block)) {
    uint64_t Ready = *ReadyAt;
    InFlight.erase(Block);
    uint64_t Now = now();
    if (Ready <= Now) {
      // Prefetch completed before the demand access: a free L2 hit.
      ++Stats.L2Hits;
      ++Stats.PrefetchFullHits;
      return obs::AccessLevel::PrefetchFull;
    }
    // Partial overlap: stall only for the residual fill latency.
    ++Stats.L2Misses;
    ++Stats.PrefetchPartialHits;
    Stats.L2StallCycles += Ready - Now;
    return obs::AccessLevel::PrefetchPartial;
  }

  ++Stats.L2Misses;
  Stats.L2StallCycles += Config.MemoryLatency;
  uint64_t Now = now();

  // Hardware next-line prefetcher: on a demand L2 miss, schedule the next
  // NextLineDegree sequential blocks as in-flight fills.
  for (uint32_t I = 1; I <= Config.Prefetch.NextLineDegree; ++I) {
    uint64_t NextAddr = (Block + I) << L2BlockShift;
    if (L2.contains(NextAddr))
      continue;
    if (InFlight.tryInsert(Block + I, Now + Config.MemoryLatency))
      ++Stats.HwPrefetches;
  }
  sweepInFlight();
  return obs::AccessLevel::Memory;
}

void MemoryHierarchy::installBoth(uint64_t Addr, bool Dirty) {
  CacheAccessResult L2Result = L2.install(Addr, Dirty);
  if (L2Result.WritebackVictim)
    ++Stats.Writebacks;
  L1.install(Addr, Dirty);
  if (Obs != nullptr && L2Result.Evicted) [[unlikely]] {
    obs::EvictEvent Event{L2Result.WritebackVictim,
                          L2Result.VictimBlock << L2BlockShift};
    if (InObservedAccess)
      SweepEvictions.push_back(Event);
    else
      Obs->onEvict(Event);
  }
}

void MemoryHierarchy::prefetch(uint64_t Addr) {
  Addr = translate(Addr);
  ++Stats.SwPrefetches;
  Stats.PrefetchIssueCycles += Config.PrefetchIssueCost;
  uint64_t Now = now();

  if (L1.contains(Addr) || L2.contains(Addr))
    return;
  if (!InFlight.tryInsert(Addr >> L2BlockShift, Now + Config.MemoryLatency))
    return;
  sweepInFlight();
}

void MemoryHierarchy::sweepInFlight() {
  if (InFlight.size() < 8192)
    return;
  // Retire completed fills into L2 (in deterministic table order); keep
  // the still-outstanding ones.
  std::vector<uint64_t> Completed;
  uint64_t Now = now();
  InFlight.forEach([&](uint64_t Block, uint64_t Ready) {
    if (Ready <= Now)
      Completed.push_back(Block);
  });
  for (uint64_t Block : Completed) {
    InFlight.erase(Block);
    installBoth(Block << L2BlockShift, false);
  }
}

void MemoryHierarchy::reset() {
  std::fill(std::begin(UnitMemo), std::end(UnitMemo), UnitMemoEntry());
  L1.reset();
  L2.reset();
  TlbModel.reset();
  InFlight.clear();
  UnitMap.clear();
  NextUnit = 1;
  Stats = SimStats();
}
