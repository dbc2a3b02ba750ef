//===- sim/ReplayParallel.cpp - Set-sharded parallel trace replay ---------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// MemoryHierarchy::replayParallel: fans a TraceShardIndex's per-shard
// sub-streams across SweepRunner workers. Correctness rests on three
// facts (argued in DESIGN.md "Sharded replay"):
//
//  * Set disjointness — the shard key covers both levels' set-index
//    bits, so two shards never touch the same set; each worker mutates
//    only its own contiguous slice of the set-major SoA tag arrays.
//  * Per-access additivity — with no prefetching in play (the index
//    rejects it), every stat and every cycle charge is a function of
//    the per-set hit/miss outcome, so per-shard SimStats sum to exactly
//    the serial totals and Cycle advances by the merged delta.
//  * Recency isomorphism — LRU only compares timestamps within a set;
//    per-slice clocks preserve each set's recency order, and absorb()
//    restores the exact serial UseClock afterwards.
//
//===----------------------------------------------------------------------===//

#include "sim/MemoryHierarchy.h"
#include "support/Metrics.h"
#include "support/SweepRunner.h"
#include "support/Timer.h"

#include <algorithm>
#include <vector>

namespace {
/// Per-replay and per-shard-group metrics. Group timings land on the
/// executing worker's shard; one Timer read per group is noise next to
/// the thousands of block accesses each group replays.
struct ReplayMetrics {
  ccl::metrics::Counter Parallel =
      ccl::metrics::counter("replay.parallel_windows");
  ccl::metrics::Counter Serial =
      ccl::metrics::counter("replay.serial_fallbacks");
  ccl::metrics::Counter Records = ccl::metrics::counter("replay.records");
  ccl::metrics::Histogram GroupNs =
      ccl::metrics::histogram("replay.group_ns");
  ccl::metrics::Histogram TlbPassNs =
      ccl::metrics::histogram("replay.tlb_pass_ns");
};

const ReplayMetrics &replayMetrics() {
  static ReplayMetrics M;
  return M;
}
} // namespace

using namespace ccl::sim;

ccl::obs::ReplayShardingEvent
MemoryHierarchy::replayParallel(const TraceShardIndex &Index, size_t CutA,
                                size_t CutB, const SweepRunner &Pool) {
  assert(CutA <= CutB && CutB < Index.numCuts() && "bad cut span");
  obs::ReplayShardingEvent Event;
  Event.Shards = Index.numShards();
  Event.Records = Index.blockAccessesBetween(CutA, CutB);
  Event.MinShardRecords = Index.minShardAccessesBetween(CutA, CutB);
  Event.MaxShardRecords = Index.maxShardAccessesBetween(CutA, CutB);

  const char *Reason = nullptr;
  if (!Index.sharded())
    Reason = Index.serialReason();
  else if (Obs != nullptr)
    Reason = "observer attached: per-access events need the serial order";
  else if (SweepRunner::inWorker())
    Reason = "already inside a sweep worker";
  else if (Pool.threads() <= 1)
    Reason = "single-thread pool";
  else if (UnitMap.size() != Index.unitsAt(CutA) ||
           NextUnit != Index.unitsAt(CutA) + 1)
    Reason = "hierarchy translation state does not match the index cut";

  if (Reason != nullptr) {
    Event.Reason = Reason;
    metrics::add(replayMetrics().Serial);
    if (Obs != nullptr)
      Obs->onReplaySharding(Event);
    TraceCursor Cursor = Index.originalCursorAt(CutA);
    replay(Cursor, Index.recordsAt(CutB) - Index.recordsAt(CutA));
    return Event;
  }

  const uint32_t Shards = Index.numShards();
  // Workers claim contiguous shard groups (one sweep cell each): the key
  // bits are the top of the L1 set index, so a contiguous shard run owns
  // a contiguous run of L1 sets — adjacent tag words stay within one
  // worker, not ping-ponging between host caches. ~4 groups per worker
  // keeps dynamic scheduling able to absorb shard skew.
  const uint32_t Groups = uint32_t(
      std::min<uint64_t>(Shards, uint64_t(Pool.threads()) * 4));

  struct GroupState {
    Cache::ShardSlice L1Slice;
    Cache::ShardSlice L2Slice;
    SimStats Stats;
  };
  std::vector<GroupState> GroupStates(Groups);
  for (GroupState &G : GroupStates) {
    G.L1Slice = L1.slice();
    G.L2Slice = L2.slice();
  }
  SimStats TlbStats;

  const uint32_t L1HitLatency = Config.L1.HitLatency;
  const uint32_t L2HitLatency = Config.L2.HitLatency;
  const uint32_t MemLatency = Config.MemoryLatency;

  // The TLB pass walks the original stream (ticks included) against the
  // index's canonical unit map, driving the hierarchy's own Tlb so its
  // state and counters end up exactly as a serial replay leaves them.
  auto tlbPass = [&] {
    TraceCursor Cursor = Index.originalCursorAt(CutA);
    size_t Left = Index.recordsAt(CutB) - Index.recordsAt(CutA);
    const bool TlbOn = Config.Tlb.Enabled;
    const uint32_t TlbMissLatency = Config.Tlb.MissLatency;
    const FlatMap64 &Units = Index.unitMap();
    uint64_t CachedUnit = ~0ULL;
    uint64_t CachedMapped = 0;
    TraceRecord Batch[TraceBlockCap];
    while (Left != 0) {
      size_t Got = Cursor.nextBatch(
          Batch, Left < TraceBlockCap ? Left : TraceBlockCap);
      if (Got == 0)
        break;
      Left -= Got;
      for (size_t I = 0; I < Got; ++I) {
        const TraceRecord &Record = Batch[I];
        if (Record.K == TraceRecord::Kind::Tick) {
          TlbStats.BusyCycles += Record.Arg;
          continue;
        }
        if (!TlbOn)
          continue;
        uint64_t Size = Record.Arg ? Record.Arg : 1;
        uint64_t First = Record.Addr >> L1BlockShift;
        uint64_t Last = (Record.Addr + Size - 1) >> L1BlockShift;
        for (uint64_t Block = First; Block <= Last; ++Block) {
          uint64_t Base = Block << L1BlockShift;
          uint64_t Unit = Base >> UnitShift;
          if (Unit != CachedUnit) {
            const uint64_t *Known = Units.find(Unit);
            assert(Known && "index unit map must cover the whole recording");
            CachedUnit = Unit;
            CachedMapped = *Known;
          }
          uint64_t Mapped = (CachedMapped << UnitShift) | (Base & UnitMask);
          if (!TlbModel.access(Mapped)) {
            ++TlbStats.TlbMisses;
            TlbStats.TlbStallCycles += TlbMissLatency;
          }
        }
      }
    }
  };

  // Exact replica of the accessBlock() charging sequence, minus the TLB
  // (handled by tlbPass) and prefetching (rejected by the index).
  auto shardPass = [&](uint32_t Group) {
    uint32_t First = uint32_t(uint64_t(Group) * Shards / Groups);
    uint32_t Last = uint32_t(uint64_t(Group + 1) * Shards / Groups);
    GroupState &G = GroupStates[Group];
    TraceRecord Batch[TraceBlockCap];
    for (uint32_t Shard = First; Shard < Last; ++Shard) {
      TraceCursor Cursor = Index.shardCursorAt(Shard, CutA);
      uint64_t Left = Index.shardAccessesBetween(Shard, CutA, CutB);
      // Same plain loop as the serial replay: decode a block, probe it.
      while (size_t Got = Cursor.nextBatch(
                 Batch, Left < TraceBlockCap ? size_t(Left) : TraceBlockCap)) {
        Left -= Got;
        for (size_t I = 0; I < Got; ++I) {
          const TraceRecord &Record = Batch[I];
          bool IsWrite = Record.K == TraceRecord::Kind::Write;
          if (IsWrite)
            ++G.Stats.Writes;
          else
            ++G.Stats.Reads;
          G.Stats.BusyCycles += L1HitLatency;
          CacheAccessResult L1Result =
              G.L1Slice.access(Record.Addr, IsWrite);
          if (L1Result.Hit) {
            ++G.Stats.L1Hits;
            continue;
          }
          ++G.Stats.L1Misses;
          G.Stats.L1StallCycles += L2HitLatency;
          CacheAccessResult L2Result =
              G.L2Slice.access(Record.Addr, IsWrite);
          if (L2Result.Hit) {
            ++G.Stats.L2Hits;
            continue;
          }
          if (L2Result.WritebackVictim)
            ++G.Stats.Writebacks;
          ++G.Stats.L2Misses;
          G.Stats.L2StallCycles += MemLatency;
        }
      }
    }
  };

  // Cell 0 is the serial TLB pass; it is usually the longest cell, so it
  // is claimed first while shard groups fill the remaining workers.
  const ReplayMetrics &RM = replayMetrics();
  Pool.run(Groups + 1, [&](size_t Cell) {
    Timer CellTimer;
    if (Cell == 0) {
      tlbPass();
      metrics::record(RM.TlbPassNs, CellTimer.elapsedNs());
    } else {
      shardPass(uint32_t(Cell - 1));
      metrics::record(RM.GroupNs, CellTimer.elapsedNs());
    }
  });

  SimStats Delta = TlbStats;
  for (GroupState &G : GroupStates) {
    Delta += G.Stats;
    L1.absorb(G.L1Slice);
    L2.absorb(G.L2Slice);
  }
  assert(Delta.isConsistent() && "sharded merge broke the stats identities");
  Stats += Delta;
  // With no prefetch overlap in play, every charged cycle advances the
  // clock, so the serial clock advance is exactly the merged total.
  Cycle += Delta.totalCycles();

  // Install the units this window discovered, in first-touch order, so
  // later accesses (serial or parallel) translate exactly as if the
  // whole span had been replayed serially.
  for (uint64_t I = Index.unitsAt(CutA); I < Index.unitsAt(CutB); ++I) {
    UnitMap.tryInsert(Index.unitAt(I), NextUnit);
    ++NextUnit;
  }

  Event.Parallel = true;
  Event.Groups = Groups;
  Event.Workers = std::min<uint32_t>(Pool.threads(), Groups + 1);
  metrics::add(RM.Parallel);
  metrics::add(RM.Records, Event.Records);
  return Event;
}
