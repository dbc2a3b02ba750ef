//===- tests/sim_golden_test.cpp - Bit-exact simulator regression -----------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Golden-statistics regression tests: fixed traces (pointer-chase,
// strided, prefetch-heavy) replayed through both paper presets must
// reproduce the exact event counts and cycle attribution recorded from
// the original scalar simulator implementation. This is the gate proving
// that hot-path optimizations (recency-ordered tag words, the inline
// access body, the translation memo, flat maps, O(1) TLB LRU) change
// nothing observable.
//
// Also asserts that a SweepRunner grid produces statistics identical to a
// serial run of the same grid, and that a TraceBuffer recording replayed
// through the trace engine reproduces the same goldens.
//
//===----------------------------------------------------------------------===//

#include "obs/Observer.h"
#include "sim/MemoryHierarchy.h"
#include "sim/TraceBuffer.h"
#include "support/SweepRunner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

using namespace ccl;
using namespace ccl::sim;

namespace {

// Hermetic 64-bit LCG (MMIX constants) so the traces never depend on
// library RNG implementations.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 17;
  }
};

struct TraceOp {
  uint64_t Addr;
  uint32_t Size;
  uint8_t Kind; // 0 = read, 1 = write, 2 = prefetch, 3 = tick
};

std::vector<TraceOp> pointerChaseTrace() {
  // A pseudo-random pointer chase over 1<<15 64-byte "nodes" based at a
  // fixed virtual address: each step reads the 8-byte "next" field.
  std::vector<TraceOp> Ops;
  const uint64_t Base = 0x7f1200000000ULL;
  const uint64_t Nodes = 1ULL << 15;
  Lcg Rng(0xCC1A70u);
  uint64_t Node = 0;
  for (unsigned I = 0; I < 200000; ++I) {
    Ops.push_back({Base + Node * 64, 8, 0});
    Node = Rng.next() % Nodes;
  }
  return Ops;
}

std::vector<TraceOp> stridedTrace() {
  // Strided sweep with a 48-byte stride (crosses block boundaries) and a
  // write every fourth access; three passes over a 1.5 MB region.
  std::vector<TraceOp> Ops;
  const uint64_t Base = 0x7f3400000000ULL;
  const uint64_t Region = 3ULL << 19;
  for (unsigned Pass = 0; Pass < 3; ++Pass)
    for (uint64_t Off = 0; Off + 16 <= Region; Off += 48)
      Ops.push_back({Base + Off, 16, uint8_t(Off / 48 % 4 == 3 ? 1 : 0)});
  return Ops;
}

std::vector<TraceOp> prefetchTrace() {
  // Strided reads with software prefetches issued 4 blocks ahead and
  // compute ticks between accesses; exercises the in-flight fill map.
  std::vector<TraceOp> Ops;
  const uint64_t Base = 0x7f5600000000ULL;
  for (unsigned I = 0; I < 60000; ++I) {
    uint64_t Addr = Base + uint64_t(I) * 64;
    Ops.push_back({Addr + 4 * 64, 1, 2});
    Ops.push_back({Addr, 8, 0});
    Ops.push_back({20, 0, 3});
  }
  return Ops;
}

void replay(MemoryHierarchy &M, const std::vector<TraceOp> &Ops) {
  for (const TraceOp &Op : Ops) {
    switch (Op.Kind) {
    case 0:
      M.read(Op.Addr, Op.Size);
      break;
    case 1:
      M.write(Op.Addr, Op.Size);
      break;
    case 2:
      M.prefetch(Op.Addr);
      break;
    case 3:
      M.tick(Op.Addr);
      break;
    }
  }
}

std::vector<TraceOp> traceByName(const std::string &Name) {
  if (Name == "pointer-chase")
    return pointerChaseTrace();
  if (Name == "strided")
    return stridedTrace();
  return prefetchTrace();
}

HierarchyConfig presetByName(const std::string &Name,
                             const std::string &Trace) {
  HierarchyConfig Config = Name == "e5000"
                               ? HierarchyConfig::ultraSparcE5000()
                               : HierarchyConfig::rsimTable1();
  // The prefetch trace also turns on the next-line prefetcher so the
  // hardware-prefetch path and the in-flight map are locked down.
  if (Trace == "prefetch")
    Config.Prefetch.NextLineDegree = 1;
  return Config;
}

/// Every externally observable number a simulation produces.
struct GoldenStats {
  uint64_t Reads, Writes, L1Hits, L1Misses, L2Hits, L2Misses;
  uint64_t TlbMisses, Writebacks, SwPrefetches, HwPrefetches;
  uint64_t PrefetchFullHits, PrefetchPartialHits;
  uint64_t BusyCycles, L1StallCycles, L2StallCycles, TlbStallCycles;
  uint64_t PrefetchIssueCycles;
  uint64_t Now, L1Evictions, L1Writebacks, L2Evictions, L2Writebacks;
  uint64_t TlbHits, TlbMissCount;
};

GoldenStats collect(const MemoryHierarchy &M) {
  const SimStats &S = M.stats();
  return {S.Reads,
          S.Writes,
          S.L1Hits,
          S.L1Misses,
          S.L2Hits,
          S.L2Misses,
          S.TlbMisses,
          S.Writebacks,
          S.SwPrefetches,
          S.HwPrefetches,
          S.PrefetchFullHits,
          S.PrefetchPartialHits,
          S.BusyCycles,
          S.L1StallCycles,
          S.L2StallCycles,
          S.TlbStallCycles,
          S.PrefetchIssueCycles,
          M.now(),
          M.l1().evictions(),
          M.l1().writebacks(),
          M.l2().evictions(),
          M.l2().writebacks(),
          M.tlb().hits(),
          M.tlb().misses()};
}

struct GoldenCase {
  const char *Trace;
  const char *Preset;
  GoldenStats Expected;
};

// Recorded from the seed implementation (commit ddc91ce): scalar cache
// scan, std::unordered_map in-flight/unit maps, timestamp-scan TLB.
// Regenerate only if the *model* intentionally changes, never for a
// performance change.
const GoldenCase GoldenCases[] = {
    {"pointer-chase", "e5000",
     {200000, 0, 1586, 198414, 90318, 108096,
      149955, 0, 0, 0, 0, 0,
      200000, 1190484, 6918144, 5998200, 0,
      14306828, 198158, 0, 91712, 0, 50045, 149955}},
    {"pointer-chase", "rsim",
     {200000, 0, 1567, 198433, 23306, 175127,
      149955, 0, 0, 0, 0, 0,
      200000, 1785897, 10507620, 5998200, 0,
      18491717, 198305, 0, 173079, 0, 50045, 149955}},
    {"strided", "e5000",
     {73728, 24576, 0, 98304, 40960, 57344,
      576, 13652, 0, 0, 0, 0,
      98304, 589824, 3670016, 23040, 0,
      4381184, 97280, 24320, 40960, 13652, 97728, 576}},
    {"strided", "rsim",
     {73728, 24576, 61440, 36864, 0, 36864,
      576, 11605, 0, 0, 0, 0,
      98304, 331776, 2211840, 23040, 0,
      2664960, 36736, 24490, 34816, 11605, 97728, 576}},
    {"prefetch", "e5000",
     {60000, 0, 0, 60000, 59996, 4,
      469, 0, 60000, 2, 59996, 2,
      1260000, 360000, 200, 18760, 60000,
      1698960, 59744, 0, 43616, 0, 59531, 469}},
    {"prefetch", "rsim",
     {60000, 0, 30000, 30000, 29998, 2,
      469, 0, 60000, 1, 29998, 1,
      1260000, 270000, 67, 18760, 60000,
      1608827, 29872, 0, 27952, 0, 59531, 469}},
};

void expectEqual(const GoldenStats &Expected, const GoldenStats &Actual,
                 const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(Expected.Reads, Actual.Reads);
  EXPECT_EQ(Expected.Writes, Actual.Writes);
  EXPECT_EQ(Expected.L1Hits, Actual.L1Hits);
  EXPECT_EQ(Expected.L1Misses, Actual.L1Misses);
  EXPECT_EQ(Expected.L2Hits, Actual.L2Hits);
  EXPECT_EQ(Expected.L2Misses, Actual.L2Misses);
  EXPECT_EQ(Expected.TlbMisses, Actual.TlbMisses);
  EXPECT_EQ(Expected.Writebacks, Actual.Writebacks);
  EXPECT_EQ(Expected.SwPrefetches, Actual.SwPrefetches);
  EXPECT_EQ(Expected.HwPrefetches, Actual.HwPrefetches);
  EXPECT_EQ(Expected.PrefetchFullHits, Actual.PrefetchFullHits);
  EXPECT_EQ(Expected.PrefetchPartialHits, Actual.PrefetchPartialHits);
  EXPECT_EQ(Expected.BusyCycles, Actual.BusyCycles);
  EXPECT_EQ(Expected.L1StallCycles, Actual.L1StallCycles);
  EXPECT_EQ(Expected.L2StallCycles, Actual.L2StallCycles);
  EXPECT_EQ(Expected.TlbStallCycles, Actual.TlbStallCycles);
  EXPECT_EQ(Expected.PrefetchIssueCycles, Actual.PrefetchIssueCycles);
  EXPECT_EQ(Expected.Now, Actual.Now);
  EXPECT_EQ(Expected.L1Evictions, Actual.L1Evictions);
  EXPECT_EQ(Expected.L1Writebacks, Actual.L1Writebacks);
  EXPECT_EQ(Expected.L2Evictions, Actual.L2Evictions);
  EXPECT_EQ(Expected.L2Writebacks, Actual.L2Writebacks);
  EXPECT_EQ(Expected.TlbHits, Actual.TlbHits);
  EXPECT_EQ(Expected.TlbMissCount, Actual.TlbMissCount);
}

// Counts every delivered event; used to prove that attaching an
// observer leaves the golden statistics bit-identical and that the
// event stream reconciles exactly with those statistics.
struct TallyObserver final : obs::SimObserver {
  uint64_t Accesses = 0, WriteEvents = 0, TlbMissEvents = 0;
  uint64_t LevelCounts[5] = {};
  uint64_t EventCycles = 0;
  uint64_t EvictEvents = 0, WritebackEvents = 0;

  void onAccess(const obs::AccessEvent &Event) override {
    ++Accesses;
    WriteEvents += Event.IsWrite;
    TlbMissEvents += Event.TlbMiss;
    ++LevelCounts[size_t(Event.Level)];
    EventCycles += Event.Cycles;
  }
  void onEvict(const obs::EvictEvent &Event) override {
    ++EvictEvents;
    WritebackEvents += Event.Writeback;
  }

  uint64_t level(obs::AccessLevel L) const { return LevelCounts[size_t(L)]; }
};

} // namespace

TEST(SimGolden, StatsMatchSeedImplementation) {
  for (const GoldenCase &Case : GoldenCases) {
    MemoryHierarchy M(presetByName(Case.Preset, Case.Trace));
    replay(M, traceByName(Case.Trace));
    expectEqual(Case.Expected, collect(M),
                std::string(Case.Trace) + "/" + Case.Preset);
  }
}

TEST(SimGolden, ObservedRunsStayBitIdentical) {
  // Attaching an observer must not perturb a single statistic in any of
  // the six golden combinations, and the delivered event stream must
  // reconcile exactly with the counters the simulator kept itself.
  for (const GoldenCase &Case : GoldenCases) {
    SCOPED_TRACE(std::string("observed/") + Case.Trace + "/" + Case.Preset);
    MemoryHierarchy M(presetByName(Case.Preset, Case.Trace));
    TallyObserver Tally;
    M.attachObserver(&Tally);
    std::vector<TraceOp> Ops = traceByName(Case.Trace);
    replay(M, Ops);
    expectEqual(Case.Expected, collect(M), "golden stats");

    const SimStats &S = M.stats();
    EXPECT_TRUE(S.isConsistent());
    EXPECT_EQ(Tally.Accesses, S.memoryReferences());
    EXPECT_EQ(Tally.WriteEvents, S.Writes);
    EXPECT_EQ(Tally.TlbMissEvents, S.TlbMisses);
    EXPECT_EQ(Tally.level(obs::AccessLevel::L1Hit), S.L1Hits);
    EXPECT_EQ(Tally.level(obs::AccessLevel::L2Hit) +
                  Tally.level(obs::AccessLevel::PrefetchFull),
              S.L2Hits);
    EXPECT_EQ(Tally.level(obs::AccessLevel::Memory) +
                  Tally.level(obs::AccessLevel::PrefetchPartial),
              S.L2Misses);
    EXPECT_EQ(Tally.level(obs::AccessLevel::PrefetchFull),
              S.PrefetchFullHits);
    EXPECT_EQ(Tally.level(obs::AccessLevel::PrefetchPartial),
              S.PrefetchPartialHits);
    EXPECT_EQ(Tally.EvictEvents, M.l2().evictions());
    EXPECT_EQ(Tally.WritebackEvents, M.l2().writebacks());

    // Every simulated cycle is accounted for: access events carry their
    // stall-inclusive cost, and what remains is exactly tick() busy time
    // plus software-prefetch issue cost.
    uint64_t TickCycles = 0;
    for (const TraceOp &Op : Ops)
      if (Op.Kind == 3)
        TickCycles += Op.Addr;
    EXPECT_EQ(Tally.EventCycles + TickCycles + S.PrefetchIssueCycles,
              M.now());
  }
}

TEST(SimGolden, DetachRestoresFastPath) {
  // Attach, run, detach, run again: the detached half must keep counting
  // (through the unobserved access path) while delivering no further
  // events.
  MemoryHierarchy M(HierarchyConfig::ultraSparcE5000());
  TallyObserver Tally;
  M.attachObserver(&Tally);
  EXPECT_EQ(M.observer(), &Tally);
  std::vector<TraceOp> Ops = pointerChaseTrace();
  replay(M, Ops);
  uint64_t Delivered = Tally.Accesses;
  EXPECT_EQ(Delivered, M.stats().memoryReferences());

  M.attachObserver(nullptr);
  EXPECT_EQ(M.observer(), nullptr);
  replay(M, Ops);
  EXPECT_EQ(Tally.Accesses, Delivered);
  EXPECT_EQ(M.stats().memoryReferences(), 2 * Delivered);
}

TEST(SimStats, DeltaAndAccumulateRoundTrip) {
  // delta(Before, After) isolates one phase of a longer run; += must
  // reassemble the whole, and every snapshot/delta stays consistent.
  MemoryHierarchy M(HierarchyConfig::rsimTable1());
  std::vector<TraceOp> Ops = stridedTrace();
  std::vector<TraceOp> FirstHalf(Ops.begin(), Ops.begin() + Ops.size() / 2);
  std::vector<TraceOp> SecondHalf(Ops.begin() + Ops.size() / 2, Ops.end());

  replay(M, FirstHalf);
  SimStats Phase1 = M.stats();
  replay(M, SecondHalf);
  SimStats Whole = M.stats();
  SimStats Phase2 = SimStats::delta(Phase1, Whole);

  EXPECT_TRUE(Phase1.isConsistent());
  EXPECT_TRUE(Phase2.isConsistent());
  EXPECT_TRUE(Whole.isConsistent());
  EXPECT_GT(Phase2.memoryReferences(), 0u);

  SimStats Sum = Phase1;
  Sum += Phase2;
  EXPECT_EQ(Sum.Reads, Whole.Reads);
  EXPECT_EQ(Sum.Writes, Whole.Writes);
  EXPECT_EQ(Sum.L1Hits, Whole.L1Hits);
  EXPECT_EQ(Sum.L1Misses, Whole.L1Misses);
  EXPECT_EQ(Sum.L2Hits, Whole.L2Hits);
  EXPECT_EQ(Sum.L2Misses, Whole.L2Misses);
  EXPECT_EQ(Sum.TlbMisses, Whole.TlbMisses);
  EXPECT_EQ(Sum.Writebacks, Whole.Writebacks);
  EXPECT_EQ(Sum.BusyCycles, Whole.BusyCycles);
  EXPECT_EQ(Sum.L1StallCycles, Whole.L1StallCycles);
  EXPECT_EQ(Sum.L2StallCycles, Whole.L2StallCycles);
  EXPECT_EQ(Sum.TlbStallCycles, Whole.TlbStallCycles);
  EXPECT_EQ(Sum.totalCycles(), Whole.totalCycles());

  // Delta against a default-constructed baseline is the identity.
  SimStats FromZero = SimStats::delta(SimStats(), Whole);
  EXPECT_EQ(FromZero.memoryReferences(), Whole.memoryReferences());
  EXPECT_EQ(FromZero.totalCycles(), Whole.totalCycles());
}

TEST(SimGolden, ResetReproducesIdenticalStats) {
  MemoryHierarchy M(HierarchyConfig::ultraSparcE5000());
  std::vector<TraceOp> Ops = pointerChaseTrace();
  replay(M, Ops);
  GoldenStats First = collect(M);
  M.reset();
  replay(M, Ops);
  expectEqual(First, collect(M), "after reset");
}

TraceBuffer recordOps(const std::vector<TraceOp> &Ops) {
  TraceBuffer Buf;
  for (const TraceOp &Op : Ops) {
    switch (Op.Kind) {
    case 0:
      Buf.recordRead(Op.Addr, Op.Size);
      break;
    case 1:
      Buf.recordWrite(Op.Addr, Op.Size);
      break;
    case 2:
      Buf.recordPrefetch(Op.Addr);
      break;
    case 3:
      Buf.recordTick(Op.Addr);
      break;
    }
  }
  Buf.seal();
  return Buf;
}

TEST(SimGolden, RecordedReplayMatchesGolden) {
  // The trace engine against the seed-implementation numbers: encoding
  // each golden trace into a TraceBuffer and replaying it through the
  // block decoder must reproduce every pinned statistic —
  // so record-once/replay-many can never drift from live simulation
  // without this test (and the seed goldens) noticing.
  for (const GoldenCase &Case : GoldenCases) {
    TraceBuffer Buf = recordOps(traceByName(Case.Trace));
    MemoryHierarchy M(presetByName(Case.Preset, Case.Trace));
    M.replay(Buf.view());
    expectEqual(Case.Expected, collect(M),
                std::string("replay/") + Case.Trace + "/" + Case.Preset);
  }
}

TEST(SimGolden, MixedSizeAccessesSpanBlocks) {
  // A 40-byte access spanning three 16-byte L1 blocks touches each block
  // once, through the same access loop as a single-block access.
  MemoryHierarchy M(HierarchyConfig::ultraSparcE5000());
  M.read(0x7f0000000008ULL, 40);
  EXPECT_EQ(M.stats().Reads, 3u);
  M.read(0x7f0000000008ULL, 40);
  EXPECT_EQ(M.stats().Reads, 6u);
  EXPECT_EQ(M.stats().L1Hits, 3u);
}

TEST(SweepRunner, GridMatchesSerialRun) {
  // A (preset x trace) grid of independent simulations run through the
  // thread pool must produce cell-for-cell identical statistics to a
  // serial in-order run.
  struct Cell {
    const char *Trace;
    const char *Preset;
  };
  std::vector<Cell> Grid;
  for (const char *Trace : {"pointer-chase", "strided", "prefetch"})
    for (const char *Preset : {"e5000", "rsim"})
      Grid.push_back({Trace, Preset});

  auto RunCell = [&](size_t I) {
    MemoryHierarchy M(presetByName(Grid[I].Preset, Grid[I].Trace));
    replay(M, traceByName(Grid[I].Trace));
    return collect(M);
  };

  std::vector<GoldenStats> Serial(Grid.size());
  SweepRunner SerialRunner(1);
  SerialRunner.run(Grid.size(),
                   [&](size_t I) { Serial[I] = RunCell(I); });

  std::vector<GoldenStats> Parallel(Grid.size());
  SweepRunner ParallelRunner(4);
  EXPECT_EQ(ParallelRunner.threads(), 4u);
  ParallelRunner.run(Grid.size(),
                     [&](size_t I) { Parallel[I] = RunCell(I); });

  for (size_t I = 0; I < Grid.size(); ++I)
    expectEqual(Serial[I], Parallel[I],
                std::string(Grid[I].Trace) + "/" + Grid[I].Preset);
}

TEST(SweepRunner, RunsEveryCellExactlyOnce) {
  constexpr size_t Cells = 1000;
  std::vector<std::atomic<uint32_t>> Counts(Cells);
  SweepRunner Runner(8);
  Runner.run(Cells, [&](size_t I) {
    Counts[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < Cells; ++I)
    EXPECT_EQ(Counts[I].load(), 1u) << "cell " << I;
}

TEST(SweepRunner, PropagatesExceptions) {
  SweepRunner Runner(4);
  EXPECT_THROW(Runner.run(100,
                          [](size_t I) {
                            if (I == 42)
                              throw std::runtime_error("cell failed");
                          }),
               std::runtime_error);
}

TEST(SweepRunner, ZeroCellsIsANoop) {
  SweepRunner Runner(4);
  bool Ran = false;
  Runner.run(0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(SweepRunner, DefaultThreadsTakesOnlyAWholePositiveCount) {
  // CCL_SWEEP_THREADS overrides the hardware count only when it is a
  // whole decimal in [1, UINT_MAX]; anything else falls back. The
  // variable is saved and restored (CI pins it for the tsan run).
  const char *Env = std::getenv("CCL_SWEEP_THREADS");
  std::optional<std::string> Saved;
  if (Env)
    Saved = Env;
  unsetenv("CCL_SWEEP_THREADS");
  const unsigned Hardware = SweepRunner::defaultThreads();
  EXPECT_GE(Hardware, 1u);

  const std::pair<const char *, unsigned> Cases[] = {
      {"3", 3u},       {"4x", Hardware}, {"4294967296", Hardware},
      {"0", Hardware}, {"-3", Hardware}, {"junk", Hardware}};
  for (const auto &[Value, Expected] : Cases) {
    setenv("CCL_SWEEP_THREADS", Value, 1);
    EXPECT_EQ(SweepRunner::defaultThreads(), Expected)
        << "CCL_SWEEP_THREADS=" << Value;
    EXPECT_EQ(SweepRunner().threads(), Expected)
        << "CCL_SWEEP_THREADS=" << Value;
  }

  if (Saved)
    setenv("CCL_SWEEP_THREADS", Saved->c_str(), 1);
  else
    unsetenv("CCL_SWEEP_THREADS");
}
