//===- tests/trace_test.cpp - Trace engine round-trip and parity ------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// The record-once/replay-many contract, locked down in three layers:
//
//  1. Coding primitives: LEB128 varint and zigzag round-trip every edge
//     value (0, 1-byte boundary, full 64-bit range, INT64_MIN).
//  2. TraceBuffer: arbitrary record streams — random full-range
//     addresses, mixed sizes (power-of-two codes, explicit varint sizes,
//     zero-size touches), all four record kinds — decode back exactly,
//     including through cursors stopped part-way, while staying
//     well under a 16-byte raw address/size record.
//  3. Replay parity: MemoryHierarchy::replay of a recording produces
//     statistics bit-identical to issuing the same
//     read()/write()/prefetch()/tick() calls live, on both paper
//     presets, for the same trace shapes the golden tests pin down.
//
//===----------------------------------------------------------------------===//

#include "sim/AccessPolicy.h"
#include "sim/MemoryHierarchy.h"
#include "sim/TraceBuffer.h"
#include "support/Varint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

using namespace ccl;
using namespace ccl::sim;

namespace {

// Hermetic 64-bit LCG (MMIX constants) so generated streams never depend
// on standard-library RNG implementations.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 17;
  }
  uint64_t full() { // All 64 bits, for address torture tests.
    uint64_t Hi = next() << 47;
    return Hi ^ next();
  }
};

//===----------------------------------------------------------------------===//
// Layer 1: coding primitives.
//===----------------------------------------------------------------------===//

TEST(Varint, RoundTripsEdgeValues) {
  const uint64_t Cases[] = {0,
                            1,
                            0x7F,
                            0x80,
                            0x3FFF,
                            0x4000,
                            (1ULL << 32) - 1,
                            1ULL << 32,
                            uint64_t(std::numeric_limits<int64_t>::max()),
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t Value : Cases) {
    SCOPED_TRACE(Value);
    std::vector<uint8_t> Vec;
    varintEncode(Vec, Value);
    EXPECT_GE(Vec.size(), 1u);
    EXPECT_LE(Vec.size(), 10u);

    // Pointer overload must produce byte-identical output.
    uint8_t Raw[16] = {};
    uint8_t *End = varintEncode(Raw, Value);
    ASSERT_EQ(size_t(End - Raw), Vec.size());
    EXPECT_EQ(std::vector<uint8_t>(Raw, End), Vec);

    const uint8_t *Pos = Vec.data();
    EXPECT_EQ(varintDecode(Pos), Value);
    EXPECT_EQ(Pos, Vec.data() + Vec.size());
  }
}

TEST(Varint, ZigzagRoundTripsFullSignedRange) {
  const int64_t Cases[] = {0,
                           -1,
                           1,
                           -64,
                           63,
                           -65,
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  for (int64_t Value : Cases) {
    SCOPED_TRACE(Value);
    EXPECT_EQ(zigzagDecode(zigzagEncode(Value)), Value);
  }
  // Small magnitudes of either sign must map to small codes (one byte).
  EXPECT_LT(zigzagEncode(-64), 128u);
  EXPECT_LT(zigzagEncode(63), 128u);
}

//===----------------------------------------------------------------------===//
// Layer 2: TraceBuffer round-trip.
//===----------------------------------------------------------------------===//

/// An uncompressed access record: 8-byte address plus 4-byte size and a
/// kind, padded to 16. The compactness tests bound encoded bytes by it.
constexpr size_t RawRecordBytes = 16;

struct RawRecord {
  TraceRecord::Kind K;
  uint64_t Addr;
  uint64_t Arg; // Size for read/write, cycles for tick, 0 for prefetch.
};

void record(TraceBuffer &Buf, const RawRecord &R) {
  switch (R.K) {
  case TraceRecord::Kind::Read:
    Buf.recordRead(R.Addr, R.Arg);
    break;
  case TraceRecord::Kind::Write:
    Buf.recordWrite(R.Addr, R.Arg);
    break;
  case TraceRecord::Kind::Prefetch:
    Buf.recordPrefetch(R.Addr);
    break;
  case TraceRecord::Kind::Tick:
    Buf.recordTick(R.Arg);
    break;
  }
}

void expectDecodesTo(TraceView View, const std::vector<RawRecord> &Expected,
                     size_t Count) {
  TraceCursor Cursor(View);
  TraceRecord Out;
  for (size_t I = 0; I < Count; ++I) {
    SCOPED_TRACE("record " + std::to_string(I));
    ASSERT_TRUE(Cursor.next(Out));
    EXPECT_EQ(Out.K, Expected[I].K);
    if (Expected[I].K != TraceRecord::Kind::Tick) {
      EXPECT_EQ(Out.Addr, Expected[I].Addr);
    }
    EXPECT_EQ(Out.Arg, Expected[I].Arg);
  }
  EXPECT_EQ(Cursor.remaining(), View.records() - Count);
  if (Cursor.done()) {
    EXPECT_FALSE(Cursor.next(Out));
  }
}

// Arbitrary streams round-trip exactly: 64 seeds x 500 records of
// uniformly random kind, full-range addresses, and a size distribution
// that covers every encoder path (all seven one-byte size codes, zero,
// non-power-of-two, and > 64-byte explicit sizes).
TEST(TraceBuffer, ArbitraryStreamsRoundTripExactly) {
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Lcg Rng(Seed * 0x9E3779B97F4A7C15ULL);
    std::vector<RawRecord> Stream;
    for (unsigned I = 0; I < 500; ++I) {
      RawRecord R;
      R.K = TraceRecord::Kind(Rng.next() % 4);
      // Mix near-previous addresses (small deltas) with full-range jumps
      // so both the one-byte and the ten-byte varint paths are hit.
      R.Addr = Rng.next() % 3 == 0 ? Rng.full() : 0x7f0000000000ULL + Rng.next() % 4096;
      switch (Rng.next() % 5) {
      case 0: // Power-of-two fast codes 1..64.
        R.Arg = uint64_t(1) << (Rng.next() % 7);
        break;
      case 1: // Zero-size touch: explicit-size path.
        R.Arg = 0;
        break;
      case 2: // Non-power-of-two.
        R.Arg = 3 + Rng.next() % 61;
        break;
      case 3: // Larger than the biggest fast code.
        R.Arg = 65 + Rng.next() % 100000;
        break;
      default: // Common case.
        R.Arg = 8;
        break;
      }
      if (R.K == TraceRecord::Kind::Prefetch)
        R.Arg = 0;
      if (R.K == TraceRecord::Kind::Tick)
        R.Arg = Rng.next() % 1000;
      Stream.push_back(R);
    }

    TraceBuffer Buf;
    for (const RawRecord &R : Stream)
      record(Buf, R);
    EXPECT_EQ(Buf.records(), Stream.size());
    Buf.seal();
    EXPECT_TRUE(Buf.sealed());

    expectDecodesTo(Buf.view(), Stream, Stream.size());

    // A cursor stopped after any count has decoded the identical
    // leading records.
    for (size_t Count : {size_t(0), size_t(1), Stream.size() / 2,
                         Stream.size() - 1, Stream.size()})
      expectDecodesTo(Buf.view(), Stream, Count);
  }
}

TEST(TraceBuffer, CompactnessBeatsRawRecords) {
  // A realistic pointer-chase recording (small deltas, common sizes)
  // must be far smaller than an array of raw 16-byte address/size
  // records; even the adversarial full-range stream above stays under
  // it. Compactness is the property that makes whole-benchmark
  // recordings affordable.
  TraceBuffer Buf;
  Lcg Rng(0xC0FFEEULL);
  const uint64_t Base = 0x7f1200000000ULL;
  const unsigned N = 100000;
  for (unsigned I = 0; I < N; ++I) {
    uint64_t Node = Rng.next() % (1ULL << 15);
    Buf.recordRead(Base + Node * 64, 4);
    Buf.recordTick(2);
    Buf.recordRead(Base + Node * 64 + 8, 8);
  }
  Buf.seal();
  EXPECT_EQ(Buf.records(), size_t(3) * N);
  EXPECT_LT(Buf.bytes(), Buf.records() * RawRecordBytes);
  // Typical records are 2-5 bytes; leave slack but pin the order.
  EXPECT_LT(Buf.bytes(), Buf.records() * 6);
}

TEST(TraceBuffer, ClearRestartsTheDeltaChain) {
  TraceBuffer Buf;
  Buf.recordRead(0x1000, 8);
  Buf.recordRead(0x1040, 8);
  Buf.seal();
  size_t FirstBytes = Buf.bytes();

  Buf.clear();
  EXPECT_EQ(Buf.records(), 0u);
  EXPECT_EQ(Buf.bytes(), 0u);
  EXPECT_FALSE(Buf.sealed());

  // Same stream re-recorded must re-encode identically (the previous
  // address chain restarts at zero).
  Buf.recordRead(0x1000, 8);
  Buf.recordRead(0x1040, 8);
  Buf.seal();
  EXPECT_EQ(Buf.bytes(), FirstBytes);
  std::vector<RawRecord> Expected = {
      {TraceRecord::Kind::Read, 0x1000, 8},
      {TraceRecord::Kind::Read, 0x1040, 8}};
  expectDecodesTo(Buf.view(), Expected, Expected.size());
}

//===----------------------------------------------------------------------===//
// Layer 3: replay parity against live simulation.
//===----------------------------------------------------------------------===//

/// Mirrors the golden suite's trace shapes: a pointer chase, a strided
/// read/write sweep, and a prefetch+tick stream.
std::vector<RawRecord> pointerChaseStream() {
  std::vector<RawRecord> Ops;
  const uint64_t Base = 0x7f1200000000ULL;
  Lcg Rng(0xCC1A70u);
  uint64_t Node = 0;
  for (unsigned I = 0; I < 100000; ++I) {
    Ops.push_back({TraceRecord::Kind::Read, Base + Node * 64, 8});
    Node = Rng.next() % (1ULL << 15);
  }
  return Ops;
}

std::vector<RawRecord> stridedStream() {
  std::vector<RawRecord> Ops;
  const uint64_t Base = 0x7f3400000000ULL;
  const uint64_t Region = 3ULL << 19;
  for (unsigned Pass = 0; Pass < 2; ++Pass)
    for (uint64_t Off = 0; Off + 16 <= Region; Off += 48)
      Ops.push_back({Off / 48 % 4 == 3 ? TraceRecord::Kind::Write
                                       : TraceRecord::Kind::Read,
                     Base + Off, 16});
  return Ops;
}

std::vector<RawRecord> prefetchStream() {
  std::vector<RawRecord> Ops;
  const uint64_t Base = 0x7f5600000000ULL;
  for (unsigned I = 0; I < 30000; ++I) {
    uint64_t Addr = Base + uint64_t(I) * 64;
    Ops.push_back({TraceRecord::Kind::Prefetch, Addr + 4 * 64, 0});
    Ops.push_back({TraceRecord::Kind::Read, Addr, 8});
    Ops.push_back({TraceRecord::Kind::Tick, 0, 20});
  }
  return Ops;
}

void driveLive(MemoryHierarchy &M, const std::vector<RawRecord> &Ops,
               size_t Count) {
  for (size_t I = 0; I < Count; ++I) {
    const RawRecord &R = Ops[I];
    switch (R.K) {
    case TraceRecord::Kind::Read:
      M.read(R.Addr, R.Arg);
      break;
    case TraceRecord::Kind::Write:
      M.write(R.Addr, R.Arg);
      break;
    case TraceRecord::Kind::Prefetch:
      M.prefetch(R.Addr);
      break;
    case TraceRecord::Kind::Tick:
      M.tick(R.Arg);
      break;
    }
  }
}

void expectSameObservableState(const MemoryHierarchy &Live,
                               const MemoryHierarchy &Replayed,
                               const std::string &Label) {
  SCOPED_TRACE(Label);
  const SimStats &A = Live.stats();
  const SimStats &B = Replayed.stats();
  EXPECT_EQ(A.Reads, B.Reads);
  EXPECT_EQ(A.Writes, B.Writes);
  EXPECT_EQ(A.L1Hits, B.L1Hits);
  EXPECT_EQ(A.L1Misses, B.L1Misses);
  EXPECT_EQ(A.L2Hits, B.L2Hits);
  EXPECT_EQ(A.L2Misses, B.L2Misses);
  EXPECT_EQ(A.TlbMisses, B.TlbMisses);
  EXPECT_EQ(A.Writebacks, B.Writebacks);
  EXPECT_EQ(A.SwPrefetches, B.SwPrefetches);
  EXPECT_EQ(A.HwPrefetches, B.HwPrefetches);
  EXPECT_EQ(A.PrefetchFullHits, B.PrefetchFullHits);
  EXPECT_EQ(A.PrefetchPartialHits, B.PrefetchPartialHits);
  EXPECT_EQ(A.BusyCycles, B.BusyCycles);
  EXPECT_EQ(A.L1StallCycles, B.L1StallCycles);
  EXPECT_EQ(A.L2StallCycles, B.L2StallCycles);
  EXPECT_EQ(A.TlbStallCycles, B.TlbStallCycles);
  EXPECT_EQ(A.PrefetchIssueCycles, B.PrefetchIssueCycles);
  EXPECT_EQ(Live.now(), Replayed.now());
  EXPECT_EQ(Live.l1().evictions(), Replayed.l1().evictions());
  EXPECT_EQ(Live.l1().writebacks(), Replayed.l1().writebacks());
  EXPECT_EQ(Live.l2().evictions(), Replayed.l2().evictions());
  EXPECT_EQ(Live.l2().writebacks(), Replayed.l2().writebacks());
  EXPECT_EQ(Live.tlb().hits(), Replayed.tlb().hits());
  EXPECT_EQ(Live.tlb().misses(), Replayed.tlb().misses());
}

std::vector<RawRecord> streamByName(const std::string &Name) {
  if (Name == "pointer-chase")
    return pointerChaseStream();
  if (Name == "strided")
    return stridedStream();
  return prefetchStream();
}

HierarchyConfig presetByName(const std::string &Name,
                             const std::string &Stream) {
  HierarchyConfig Config = Name == "e5000"
                               ? HierarchyConfig::ultraSparcE5000()
                               : HierarchyConfig::rsimTable1();
  if (Stream == "prefetch")
    Config.Prefetch.NextLineDegree = 1;
  return Config;
}

TEST(TraceReplay, MatchesLiveRunOnBothPresets) {
  for (const char *Stream : {"pointer-chase", "strided", "prefetch"}) {
    std::vector<RawRecord> Ops = streamByName(Stream);
    TraceBuffer Buf;
    for (const RawRecord &R : Ops)
      record(Buf, R);
    Buf.seal();
    for (const char *Preset : {"e5000", "rsim"}) {
      HierarchyConfig Config = presetByName(Preset, Stream);
      MemoryHierarchy Live(Config);
      driveLive(Live, Ops, Ops.size());
      MemoryHierarchy Replayed(Config);
      Replayed.replay(Buf.view());
      expectSameObservableState(Live, Replayed,
                                std::string(Stream) + "/" + Preset);
    }
  }
}

TEST(TraceReplay, BoundedReplayMatchesTruncatedLiveRun) {
  // Replaying the first N records must equal a live run stopped after N
  // calls — the property fig5 relies on to reuse one recording for every
  // search-count sweep point.
  std::vector<RawRecord> Ops = pointerChaseStream();
  TraceBuffer Buf;
  for (const RawRecord &R : Ops)
    record(Buf, R);
  Buf.seal();
  HierarchyConfig Config = HierarchyConfig::ultraSparcE5000();
  for (size_t Count : {size_t(1), size_t(100), Ops.size() / 3,
                       Ops.size() - 1, Ops.size()}) {
    MemoryHierarchy Live(Config);
    driveLive(Live, Ops, Count);
    MemoryHierarchy Replayed(Config);
    TraceCursor Cursor(Buf.view());
    Replayed.replay(Cursor, Count);
    expectSameObservableState(Live, Replayed,
                              "prefix " + std::to_string(Count));
  }
}

TEST(TraceReplay, SplitCursorMatchesOneShotReplay) {
  // Consuming a recording through several bounded replay() calls must be
  // indistinguishable from a single replay of the whole view — the
  // warmup-window pattern.
  std::vector<RawRecord> Ops = stridedStream();
  TraceBuffer Buf;
  for (const RawRecord &R : Ops)
    record(Buf, R);
  Buf.seal();
  HierarchyConfig Config = HierarchyConfig::rsimTable1();

  MemoryHierarchy OneShot(Config);
  OneShot.replay(Buf.view());

  MemoryHierarchy Phased(Config);
  TraceCursor Cursor(Buf.view());
  size_t Chunks[] = {1, 63, 64, 65, 1000, Ops.size()}; // Last one clamps.
  for (size_t Chunk : Chunks)
    Phased.replay(Cursor, Chunk);
  while (!Cursor.done())
    Phased.replay(Cursor, 4096);
  expectSameObservableState(OneShot, Phased, "split cursor");
}

TEST(TraceReplay, RecordAccessPolicyMatchesSimAccess) {
  // The same workload templated over RecordAccess (capture) and
  // SimAccess (live) must yield bit-identical statistics after replay —
  // the exact substitution the figure benches perform.
  struct Node {
    uint32_t Key;
    Node *Next;
  };
  // One shared pool: both runs must touch the *same* addresses, since
  // the first-touch remap preserves intra-unit offsets.
  std::vector<Node> Pool(4096);
  for (size_t I = 0; I < Pool.size(); ++I) {
    Pool[I].Key = uint32_t(I);
    Pool[I].Next = &Pool[(I * 2654435761u + 1) % Pool.size()];
  }
  auto Workload = [&Pool](auto &A) {
    Node *P = &Pool[0];
    uint64_t Sum = 0;
    for (unsigned I = 0; I < 50000; ++I) {
      Sum += A.load(&P->Key);
      A.tick(2);
      if (I % 16 == 0)
        A.prefetch(P->Next);
      if (I % 64 == 0)
        A.store(&P->Key, P->Key);
      P = A.load(&P->Next);
    }
    A.touch(Pool.data(), 40); // Spans blocks; exercises the range path.
    return Sum;
  };

  HierarchyConfig Config = HierarchyConfig::ultraSparcE5000();
  MemoryHierarchy Live(Config);
  SimAccess S(Live);
  uint64_t LiveSum = Workload(S);

  TraceBuffer Buf;
  RecordAccess R(Buf);
  uint64_t RecordedSum = Workload(R);
  EXPECT_EQ(LiveSum, RecordedSum); // Same native computation either way.
  Buf.seal();

  MemoryHierarchy Replayed(Config);
  Replayed.replay(Buf.view());
  expectSameObservableState(Live, Replayed, "policy parity");
}

} // namespace
