//===- tests/trace_v2_test.cpp - Blocked trace codec properties -----------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// The blocked trace codec's contract: every record stream round-trips
// exactly, whatever mix of payload widths it holds and wherever its
// blocks end; the decode's 8-byte loads stay inside the sealed buffer;
// a bounded consume() visits exactly its budget and resumes where it
// stopped, matching single stepping; and replay — serial, bounded,
// phased, or many concurrent cells sharing one buffer at any worker
// count — is bit-identical to issuing the same stream live
// through read()/write()/tick(), and an observed replay delivers the
// same events as the observed live run. This suite locks each of those
// properties down with randomized streams and adversarial
// block-boundary lengths.
//
//===----------------------------------------------------------------------===//

#include "obs/Observer.h"
#include "sim/MemoryHierarchy.h"
#include "sim/TraceBuffer.h"
#include "support/SweepRunner.h"
#include "support/Varint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

using namespace ccl;
using namespace ccl::sim;

namespace {

// Hermetic 64-bit LCG (MMIX constants), as in the sibling trace suites.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 17;
  }
  uint64_t full() {
    uint64_t Hi = next() << 47;
    return Hi ^ next();
  }
  uint64_t bounded(uint64_t N) { return next() % N; }
};

/// An uncompressed access record: 8-byte address plus 4-byte size and a
/// kind, padded to 16. The compactness test bounds encoded bytes by it.
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

/// A random stream hitting every encoder path: all four kinds, both
/// near-previous and full-range addresses (all four payload widths),
/// every size-code path including explicit varint sizes.
std::vector<RawRecord> randomStream(uint64_t Seed, size_t Length) {
  Lcg Rng(Seed * 0x9E3779B97F4A7C15ULL);
  std::vector<RawRecord> Stream;
  uint64_t Prev = 0;
  for (size_t I = 0; I < Length; ++I) {
    RawRecord R;
    R.K = TraceRecord::Kind(Rng.next() % 4);
    switch (Rng.next() % 4) {
    case 0: // Tiny delta: 1-byte payload.
      R.Addr = Prev + Rng.next() % 64;
      break;
    case 1: // Medium delta: 2-byte payload.
      R.Addr = Prev + 200 + Rng.next() % 30000;
      break;
    case 2: // Large delta: 4-byte payload.
      R.Addr = Prev - (1ULL << 20) - Rng.next() % (1ULL << 30);
      break;
    default: // Full-range jump: 8-byte payload.
      R.Addr = Rng.full();
      break;
    }
    switch (Rng.next() % 5) {
    case 0:
      R.Arg = uint64_t(1) << (Rng.next() % 7); // Fast codes 1..64.
      break;
    case 1:
      R.Arg = 0; // Explicit-size path.
      break;
    case 2:
      R.Arg = 3 + Rng.next() % 61; // Non-power-of-two.
      break;
    case 3:
      R.Arg = 65 + Rng.next() % 100000; // Above the biggest fast code.
      break;
    default:
      R.Arg = 8;
      break;
    }
    if (R.K == TraceRecord::Kind::Prefetch)
      R.Arg = 0;
    if (R.K == TraceRecord::Kind::Tick)
      R.Arg = Rng.next() % 100000;
    else
      Prev = R.Addr;
    Stream.push_back(R);
  }
  return Stream;
}

/// A stream whose payload widths are drawn uniformly and independently
/// per record: any width sequence the data lane can hold, including runs
/// the realistic generators rarely produce. Each payload needs exactly
/// its drawn width; ticks store it directly, accesses as the delta whose
/// zigzag it is.
std::vector<RawRecord> widthMixStream(uint64_t Seed, size_t Length) {
  Lcg Rng(Seed * 0x2545F4914F6CDD1DULL);
  std::vector<RawRecord> Stream;
  uint64_t Prev = 0;
  for (size_t I = 0; I < Length; ++I) {
    uint32_t Bits = 8u << Rng.bounded(4);
    uint64_t Payload = Rng.full();
    if (Bits < 64)
      Payload &= (uint64_t(1) << Bits) - 1;
    Payload |= uint64_t(1) << (Bits - 1);
    RawRecord R;
    R.K = TraceRecord::Kind(Rng.next() % 4);
    if (R.K == TraceRecord::Kind::Tick) {
      R.Addr = 0;
      R.Arg = Payload;
    } else {
      R.Addr = Prev + uint64_t(zigzagDecode(Payload));
      R.Arg = R.K == TraceRecord::Kind::Prefetch ? 0 : 8;
      Prev = R.Addr;
    }
    Stream.push_back(R);
  }
  return Stream;
}

TraceBuffer recordAll(const std::vector<RawRecord> &Stream) {
  TraceBuffer Buf;
  for (const RawRecord &R : Stream)
    record(Buf, R);
  Buf.seal();
  return Buf;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round-trip.
//===----------------------------------------------------------------------===//

TEST(TraceV2, ArbitraryStreamsRoundTripExactly) {
  for (uint64_t Seed = 1; Seed <= 32; ++Seed) {
    for (bool WidthMix : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(Seed) +
                   (WidthMix ? " width mix" : " random"));
      std::vector<RawRecord> Stream =
          WidthMix ? widthMixStream(Seed, 1 + Seed * 37 % 500)
                   : randomStream(Seed, 500);
      TraceBuffer Buf = recordAll(Stream);
      EXPECT_EQ(Buf.records(), Stream.size());
      ASSERT_TRUE(Buf.sealed());

      expectDecodesTo(Buf.view(), Stream, Stream.size());
      for (size_t Count : {size_t(0), size_t(1), Stream.size() / 2,
                           Stream.size() - 1, Stream.size()})
        expectDecodesTo(Buf.view(), Stream, Count);
    }
  }
}

TEST(TraceV2, BlockBoundaryLengthsRoundTrip) {
  // Lengths straddling the 64-record block capacity: partial final
  // block, exactly-full block, one spilled record, two blocks, and a
  // two-block-plus-one tail.
  for (size_t Length : {size_t(1), size_t(63), size_t(64), size_t(65),
                        size_t(127), size_t(128), size_t(129)}) {
    SCOPED_TRACE("length " + std::to_string(Length));
    std::vector<RawRecord> Stream = randomStream(0xB10C + Length, Length);
    TraceBuffer Buf = recordAll(Stream);
    expectDecodesTo(Buf.view(), Stream, Length);
    // Stops inside the final (possibly partial) block too.
    for (size_t Count : {Length - 1, Length / 2})
      expectDecodesTo(Buf.view(), Stream, Count);
  }
}

TEST(TraceV2, PayloadWidthEdgesRoundTrip) {
  // Deltas chosen to land exactly on the 1/2/4/8-byte payload width
  // boundaries after zigzag (payload = 2|d| or 2|d|-1): both signs at
  // each boundary, zero delta, and full-range extremes.
  const int64_t Deltas[] = {0,
                            1,
                            -1,
                            127,
                            -128, // Last 1-byte payloads.
                            128,
                            -129, // First 2-byte payloads.
                            32767,
                            -32768,
                            32768, // 2 -> 4 byte boundary.
                            (int64_t(1) << 31) - 1,
                            -(int64_t(1) << 31),
                            int64_t(1) << 31, // 4 -> 8 byte boundary.
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  std::vector<RawRecord> Stream;
  uint64_t Addr = 0x7f0000000000ULL;
  for (int64_t D : Deltas) {
    Addr += uint64_t(D);
    Stream.push_back({TraceRecord::Kind::Read, Addr, 8});
  }
  // Tick payloads hit the unsigned width boundaries directly.
  for (uint64_t Cycles :
       {uint64_t(0), uint64_t(255), uint64_t(256), uint64_t(65535),
        uint64_t(65536), (uint64_t(1) << 32) - 1, uint64_t(1) << 32,
        ~uint64_t(0)})
    Stream.push_back({TraceRecord::Kind::Tick, 0, Cycles});

  TraceBuffer Buf = recordAll(Stream);
  expectDecodesTo(Buf.view(), Stream, Stream.size());
}

TEST(TraceV2, OneBytePayloadAtTheEndStaysInsidePadding) {
  // The decode loads 8 bytes at every payload. When the last
  // encoded byte of a sealed buffer is a 1-byte payload (its block has
  // no explicit sizes, so no extra lane follows), that load reaches 7
  // bytes past the stream — inside seal()'s padding. Under asan an
  // overrun here is a heap-buffer-overflow.
  for (size_t Length : {size_t(1), size_t(2), size_t(64), size_t(65),
                        size_t(200)}) {
    SCOPED_TRACE("length " + std::to_string(Length));
    std::vector<RawRecord> Stream;
    uint64_t Addr = 0;
    for (size_t I = 0; I + 1 < Length; ++I) {
      Addr += 8 << (I % 16); // 1-, 2- and 4-byte payloads.
      Stream.push_back({TraceRecord::Kind::Read, Addr, 8});
    }
    Stream.push_back({TraceRecord::Kind::Tick, 0, 1}); // 1-byte payload.
    TraceBuffer Buf = recordAll(Stream);
    if (Length == 1) {
      // Header varints (count, data bytes, extra bytes), one control
      // byte, one payload byte: the payload is the last encoded byte.
      EXPECT_EQ(Buf.bytes(), 5u);
    }
    expectDecodesTo(Buf.view(), Stream, Length);
  }
}

TEST(TraceV2, CompactnessHoldsOnPointerChase) {
  // The blocked layout must keep the compactness property recordings
  // rely on: a realistic chase stays well under a raw record's size.
  TraceBuffer Buf;
  Lcg Rng(0xC0FFEEULL);
  const uint64_t Base = 0x7f1200000000ULL;
  for (unsigned I = 0; I < 100000; ++I) {
    uint64_t Node = Rng.next() % (1ULL << 15);
    Buf.recordRead(Base + Node * 64, 4);
    Buf.recordTick(2);
    Buf.recordRead(Base + Node * 64 + 8, 8);
  }
  Buf.seal();
  EXPECT_LT(Buf.bytes(), Buf.records() * RawRecordBytes);
  EXPECT_LT(Buf.bytes(), Buf.records() * 6);
}

//===----------------------------------------------------------------------===//
// consume(): the replay loop's decode.
//===----------------------------------------------------------------------===//

namespace {

/// The whole view decoded one next() at a time.
std::vector<TraceRecord> stepAll(TraceView View) {
  std::vector<TraceRecord> Out;
  TraceCursor Cursor(View);
  TraceRecord R;
  while (Cursor.next(R))
    Out.push_back(R);
  return Out;
}

void expectRecord(const TraceRecord &Expected, TraceRecord::Kind K,
                  uint64_t Addr, uint64_t Arg) {
  EXPECT_EQ(K, Expected.K);
  EXPECT_EQ(Addr, Expected.Addr);
  EXPECT_EQ(Arg, Expected.Arg);
}

} // namespace

TEST(TraceV2, ConsumeVisitsExactlyMaxAndMatchesNext) {
  // Every consume(Max) call visits min(Max, remaining) records, whatever
  // block boundaries lie inside its range, and the calls together yield
  // the stream next() yields.
  std::vector<RawRecord> Stream = randomStream(0xBA7C4, 1000);
  TraceBuffer Buf = recordAll(Stream);
  std::vector<TraceRecord> Stepped = stepAll(Buf.view());
  ASSERT_EQ(Stepped.size(), Stream.size());

  for (size_t Max : {size_t(0), size_t(1), size_t(7), size_t(63),
                     size_t(64), size_t(65), size_t(200),
                     Stream.size() + 5}) {
    SCOPED_TRACE("max " + std::to_string(Max));
    TraceCursor Cursor(Buf.view());
    size_t Seen = 0;
    do {
      size_t Expected = std::min(Max, Cursor.remaining());
      size_t Visited = 0;
      size_t Got = Cursor.consume(
          Max, [&](TraceRecord::Kind K, uint64_t Addr, uint64_t Arg) {
            ASSERT_LT(Seen, Stepped.size());
            SCOPED_TRACE("record " + std::to_string(Seen));
            expectRecord(Stepped[Seen++], K, Addr, Arg);
            ++Visited;
          });
      EXPECT_EQ(Got, Expected);
      EXPECT_EQ(Visited, Expected);
      EXPECT_EQ(Cursor.remaining(), Stream.size() - Seen);
    } while (Max != 0 && !Cursor.done());
    EXPECT_EQ(Seen, Max == 0 ? 0 : Stream.size());
  }
}

TEST(TraceV2, NextResumesWhereABoundedConsumeStopped) {
  // A bounded consume may stop mid-block; next() continues from the
  // following record, in the same block or the one after it.
  std::vector<RawRecord> Stream = randomStream(0x5E5E, 200);
  TraceBuffer Buf = recordAll(Stream);
  std::vector<TraceRecord> Stepped = stepAll(Buf.view());
  for (size_t Stop : {size_t(1), size_t(30), size_t(63), size_t(64),
                      size_t(100), size_t(199)}) {
    SCOPED_TRACE("stop " + std::to_string(Stop));
    TraceCursor Cursor(Buf.view());
    ASSERT_EQ(Cursor.consume(Stop, [](TraceRecord::Kind, uint64_t,
                                      uint64_t) {}),
              Stop);
    TraceRecord R;
    for (size_t I = Stop; I < Stepped.size(); ++I) {
      SCOPED_TRACE("record " + std::to_string(I));
      ASSERT_TRUE(Cursor.next(R));
      expectRecord(Stepped[I], R.K, R.Addr, R.Arg);
    }
    EXPECT_FALSE(Cursor.next(R));
  }
}

//===----------------------------------------------------------------------===//
// Replay parity: replays must be bit-identical to the live call sequence.
//===----------------------------------------------------------------------===//

namespace {

/// Every externally observable number a hierarchy exposes.
using Snapshot = std::array<uint64_t, 24>;

Snapshot snap(const MemoryHierarchy &M) {
  const SimStats &S = M.stats();
  return {S.Reads,          S.Writes,
          S.L1Hits,         S.L1Misses,
          S.L2Hits,         S.L2Misses,
          S.TlbMisses,      S.Writebacks,
          S.SwPrefetches,   S.HwPrefetches,
          S.PrefetchFullHits, S.PrefetchPartialHits,
          S.BusyCycles,     S.L1StallCycles,
          S.L2StallCycles,  S.TlbStallCycles,
          S.PrefetchIssueCycles, M.now(),
          M.l1().hits(),    M.l1().evictions(),
          M.l2().hits(),    M.l2().evictions(),
          M.tlb().hits(),   M.tlb().misses()};
}

void expectSame(const Snapshot &A, const Snapshot &B,
                const std::string &Label) {
  SCOPED_TRACE(Label);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << "counter " << I;
}

/// A mixed simulation stream: pointer chases and random touches of
/// assorted sizes, with ticks between.
std::vector<RawRecord> mixedStream(uint64_t Seed, size_t Records) {
  std::vector<RawRecord> Stream;
  Lcg Rng(Seed);
  const uint64_t Base = 0x7f0000000000ULL + (Seed & 0xFFF) * 4096;
  const uint64_t Span = 8ULL << 20;
  const uint64_t Sizes[] = {0, 1, 2, 4, 8, 16, 48, 64, 100, 128};
  uint64_t Node = 0;
  for (size_t I = 0; I < Records; ++I) {
    uint64_t Roll = Rng.bounded(100);
    if (Roll < 5) {
      Stream.push_back({TraceRecord::Kind::Tick, 0, 1 + Rng.bounded(20)});
      continue;
    }
    uint64_t Addr;
    if (Roll < 70) {
      Addr = Base + Node * 64;
      Node = Rng.bounded(Span / 64);
    } else {
      Addr = Base + Rng.bounded(Span);
    }
    uint64_t Size = Sizes[Rng.bounded(sizeof(Sizes) / sizeof(Sizes[0]))];
    Stream.push_back({Roll % 4 == 3 ? TraceRecord::Kind::Write
                                    : TraceRecord::Kind::Read,
                      Addr, Size});
  }
  return Stream;
}

/// Issues records [\p First, \p First + \p Count) of \p Stream live, one
/// read()/write()/prefetch()/tick() call each: the reference every
/// replay must reproduce.
void issueLive(MemoryHierarchy &M, const std::vector<RawRecord> &Stream,
               size_t First, size_t Count) {
  for (size_t I = First; I < First + Count; ++I) {
    const RawRecord &R = Stream[I];
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

} // namespace

TEST(TraceV2Replay, SerialParityWithLiveBothPresets) {
  std::vector<RawRecord> Stream = mixedStream(0x909, 80000);
  TraceBuffer Buf = recordAll(Stream);
  for (const char *Preset : {"e5000", "rsim"}) {
    HierarchyConfig Config = std::string(Preset) == "e5000"
                                 ? HierarchyConfig::ultraSparcE5000()
                                 : HierarchyConfig::rsimTable1();
    MemoryHierarchy Live(Config), Replayed(Config);
    issueLive(Live, Stream, 0, Stream.size());
    Replayed.replay(Buf.view());
    expectSame(snap(Live), snap(Replayed), Preset);
  }
}

TEST(TraceV2Replay, PrefixAndPhasedReplaysMatchLive) {
  std::vector<RawRecord> Stream = mixedStream(0xFA5E, 50000);
  TraceBuffer Buf = recordAll(Stream);
  HierarchyConfig Config = HierarchyConfig::ultraSparcE5000();
  size_t N = Buf.records();

  for (size_t Count : {size_t(1), size_t(63), size_t(64), N / 3, N}) {
    MemoryHierarchy Live(Config), Replayed(Config);
    issueLive(Live, Stream, 0, Count);
    TraceCursor Cursor(Buf.view());
    Replayed.replay(Cursor, Count);
    expectSame(snap(Live), snap(Replayed), "prefix " + std::to_string(Count));
  }

  // Phased consumption through bounded replay(cursor, n) calls, with
  // chunk sizes that repeatedly split blocks.
  MemoryHierarchy Live(Config), Replayed(Config);
  TraceCursor Cursor(Buf.view());
  size_t Issued = 0;
  for (size_t Chunk : {size_t(1), size_t(63), size_t(64), size_t(65),
                       size_t(1000)}) {
    issueLive(Live, Stream, Issued, Chunk);
    Issued += Chunk;
    Replayed.replay(Cursor, Chunk);
    expectSame(snap(Live), snap(Replayed), "chunk " + std::to_string(Chunk));
  }
  issueLive(Live, Stream, Issued, N - Issued);
  while (!Cursor.done())
    Replayed.replay(Cursor, 4096);
  expectSame(snap(Live), snap(Replayed), "phased tail");
}

TEST(TraceV2Replay, ConcurrentCellsMatchLiveAcrossWorkerCounts) {
  // The sharing the figure benches rely on: many SweepRunner cells
  // replay one sealed buffer at once, each into its own hierarchy —
  // different prefixes of it and a warmup/window split through one
  // bounded cursor (fig10). Every cell must land on the live
  // read()/write()/tick() reference for its prefix, at every worker
  // count.
  std::vector<RawRecord> Stream = mixedStream(0x51AB5, 100000);
  TraceBuffer Buf = recordAll(Stream);
  HierarchyConfig Config = HierarchyConfig::ultraSparcE5000();
  const size_t N = Buf.records();
  const std::vector<size_t> Prefixes = {1,     63,    64,    65,
                                        N / 10, N / 3, N / 2, N};
  const size_t Warmup = N / 4;

  std::vector<Snapshot> Want(Prefixes.size());
  for (size_t P = 0; P < Prefixes.size(); ++P) {
    MemoryHierarchy Live(Config);
    issueLive(Live, Stream, 0, Prefixes[P]);
    Want[P] = snap(Live);
  }
  MemoryHierarchy Live(Config);
  issueLive(Live, Stream, 0, Warmup);
  const Snapshot WantWarm = snap(Live);
  issueLive(Live, Stream, Warmup, N - Warmup);
  const Snapshot WantWindow = snap(Live);

  for (unsigned Workers : {1u, 2u, 4u, 8u}) {
    SweepRunner Pool(Workers);
    std::vector<Snapshot> Got(Prefixes.size());
    Snapshot GotWarm{}, GotWindow{};
    // Cells 0..P-1 replay prefixes through bounded cursors, longest
    // first; the last cell replays the warmup/window split.
    Pool.run(Prefixes.size() + 1, [&](size_t Cell) {
      MemoryHierarchy M(Config);
      if (Cell == Prefixes.size()) {
        TraceCursor Cursor(Buf.view());
        M.replay(Cursor, Warmup);
        GotWarm = snap(M);
        M.replay(Cursor, Cursor.remaining());
        GotWindow = snap(M);
        return;
      }
      size_t P = Prefixes.size() - 1 - Cell;
      TraceCursor Cursor(Buf.view());
      M.replay(Cursor, Prefixes[P]);
      Got[P] = snap(M);
    });
    std::string Label = "workers " + std::to_string(Workers);
    for (size_t P = 0; P < Prefixes.size(); ++P)
      expectSame(Want[P], Got[P],
                 Label + " prefix " + std::to_string(Prefixes[P]));
    expectSame(WantWarm, GotWarm, Label + " warmup");
    expectSame(WantWindow, GotWindow, Label + " window");
  }
}

namespace {

/// Folds every field of every observer event, in delivery order, into a
/// digest, and counts the events by kind. A 100 KB read spans 6250
/// E5000 L1 blocks, so a log runs to millions of events and is folded
/// as it arrives rather than stored. Each fold step is a bijection of
/// the digest, so logs that differ in a single field never compare
/// equal.
class EventLog : public obs::SimObserver {
public:
  uint64_t Digest = 0;
  uint64_t Accesses = 0;
  uint64_t Evictions = 0;

  void onAccess(const obs::AccessEvent &E) override {
    ++Accesses;
    fold({0, E.VAddr, E.Mapped, E.Size, E.IsWrite, E.TlbMiss,
          uint64_t(E.Level), E.Cycles});
  }
  void onEvict(const obs::EvictEvent &E) override {
    ++Evictions;
    fold({1, E.Writeback, E.MappedBlockAddr});
  }

private:
  void fold(std::initializer_list<uint64_t> Fields) {
    for (uint64_t Field : Fields) {
      uint64_t X = Digest ^ Field;
      X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
      X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
      Digest = X ^ (X >> 31);
    }
  }
};

void expectSameLog(const EventLog &A, const EventLog &B,
                   const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(A.Accesses, B.Accesses);
  EXPECT_EQ(A.Evictions, B.Evictions);
  EXPECT_EQ(A.Digest, B.Digest);
}

} // namespace

TEST(TraceV2Replay, ObservedReplayMatchesObservedLive) {
  // An attached observer must see the same events from a replay as from
  // the live read()/write()/prefetch()/tick() calls it recorded, whole
  // or phased, and the statistics must not move. randomStream has all
  // four record kinds and sizes spanning many blocks; the next-line
  // prefetcher adds prefetch-hidden fills and in-flight retirement.
  std::vector<RawRecord> Stream = randomStream(0x0B5, 2500);
  TraceBuffer Buf = recordAll(Stream);
  HierarchyConfig Config = HierarchyConfig::ultraSparcE5000();
  Config.Prefetch.NextLineDegree = 1;

  MemoryHierarchy Live(Config);
  EventLog LiveLog;
  Live.attachObserver(&LiveLog);
  issueLive(Live, Stream, 0, Stream.size());
  EXPECT_GT(LiveLog.Accesses, Stream.size());
  EXPECT_GT(LiveLog.Evictions, 0u);

  MemoryHierarchy Whole(Config);
  EventLog WholeLog;
  Whole.attachObserver(&WholeLog);
  Whole.replay(Buf.view());
  expectSameLog(LiveLog, WholeLog, "whole replay");
  expectSame(snap(Live), snap(Whole), "whole replay");

  MemoryHierarchy Phased(Config);
  EventLog PhasedLog;
  Phased.attachObserver(&PhasedLog);
  TraceCursor Cursor(Buf.view());
  while (!Cursor.done())
    Phased.replay(Cursor, 1000);
  expectSameLog(LiveLog, PhasedLog, "phased replay");
  expectSame(snap(Live), snap(Phased), "phased replay");
}
