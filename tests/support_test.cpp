//===- tests/support_test.cpp - Support library unit tests ------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "support/Align.h"
#include "support/FlatMap.h"
#include "support/Random.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "support/Zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace ccl;

//===----------------------------------------------------------------------===//
// Align
//===----------------------------------------------------------------------===//

TEST(Align, PowerOf2Detection) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_FALSE(isPowerOf2(3));
  EXPECT_TRUE(isPowerOf2(1ULL << 40));
  EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(Align, AlignUpBasics) {
  EXPECT_EQ(alignUp(0, 8), 0u);
  EXPECT_EQ(alignUp(1, 8), 8u);
  EXPECT_EQ(alignUp(8, 8), 8u);
  EXPECT_EQ(alignUp(9, 8), 16u);
  EXPECT_EQ(alignUp(4095, 4096), 4096u);
}

TEST(Align, AlignDownBasics) {
  EXPECT_EQ(alignDown(0, 8), 0u);
  EXPECT_EQ(alignDown(7, 8), 0u);
  EXPECT_EQ(alignDown(8, 8), 8u);
  EXPECT_EQ(alignDown(4097, 4096), 4096u);
}

TEST(Align, IsAligned) {
  EXPECT_TRUE(isAligned(0, 64));
  EXPECT_TRUE(isAligned(128, 64));
  EXPECT_FALSE(isAligned(96, 64));
}

TEST(Align, Log2Exact) {
  EXPECT_EQ(log2Exact(1), 0u);
  EXPECT_EQ(log2Exact(2), 1u);
  EXPECT_EQ(log2Exact(64), 6u);
  EXPECT_EQ(log2Exact(1ULL << 30), 30u);
}

TEST(Align, NextPowerOf2) {
  EXPECT_EQ(nextPowerOf2(0), 1u);
  EXPECT_EQ(nextPowerOf2(1), 1u);
  EXPECT_EQ(nextPowerOf2(3), 4u);
  EXPECT_EQ(nextPowerOf2(64), 64u);
  EXPECT_EQ(nextPowerOf2(65), 128u);
}

// Property: alignUp(x, a) is the least multiple of a that is >= x.
class AlignSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlignSweep, AlignUpIsLeastUpperMultiple) {
  uint64_t Align = GetParam();
  for (uint64_t X : {0ULL, 1ULL, 63ULL, 64ULL, 65ULL, 1000ULL, 123456ULL}) {
    uint64_t Up = alignUp(X, Align);
    EXPECT_GE(Up, X);
    EXPECT_TRUE(isAligned(Up, Align));
    if (Up >= Align) {
      EXPECT_LT(Up - Align, X);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Alignments, AlignSweep,
                         ::testing::Values(1, 2, 8, 16, 64, 4096, 65536));

TEST(Align, AllocateAlignedRoundsUpAndAligns) {
  for (uint64_t Align : {8ULL, 64ULL, 4096ULL, 1ULL << 16}) {
    AlignedBuffer Buffer = allocateAligned(Align, 100);
    ASSERT_NE(Buffer, nullptr);
    EXPECT_TRUE(isAligned(addrOf(Buffer.get()), Align)) << "align " << Align;
    // The whole rounded-up extent is the caller's.
    std::fill(Buffer.get(), Buffer.get() + alignUp(100, Align), 'x');
  }
}

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(Random, Deterministic) {
  Xoshiro256 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Xoshiro256 A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(Random, BoundedStaysInRange) {
  Xoshiro256 Rng(7);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int I = 0; I < 200; ++I) {
      EXPECT_LT(Rng.nextBounded(Bound), Bound);
    }
  }
}

TEST(Random, BoundedCoversRange) {
  Xoshiro256 Rng(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(Rng.nextBounded(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Random, DoubleInUnitInterval) {
  Xoshiro256 Rng(11);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Random, ShuffleIsPermutation) {
  Xoshiro256 Rng(13);
  std::vector<int> Values(100);
  for (int I = 0; I < 100; ++I)
    Values[I] = I;
  std::vector<int> Shuffled = Values;
  Rng.shuffle(Shuffled);
  EXPECT_NE(Shuffled, Values); // Astronomically unlikely to be identity.
  std::sort(Shuffled.begin(), Shuffled.end());
  EXPECT_EQ(Shuffled, Values);
}

TEST(Random, SplitMixExpandsSeed) {
  SplitMix64 A(0);
  uint64_t First = A.next();
  uint64_t Second = A.next();
  EXPECT_NE(First, Second);
  SplitMix64 B(0);
  EXPECT_EQ(B.next(), First);
}

TEST(Random, MeanIsCentered) {
  Xoshiro256 Rng(17);
  double Sum = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += Rng.nextDouble();
  EXPECT_NEAR(Sum / N, 0.5, 0.02);
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinter, FormatsDoubles) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::fmt(-1.5, 1), "-1.5");
}

TEST(TablePrinter, FormatsIntegersWithSeparators) {
  EXPECT_EQ(TablePrinter::fmtInt(0), "0");
  EXPECT_EQ(TablePrinter::fmtInt(999), "999");
  EXPECT_EQ(TablePrinter::fmtInt(1000), "1,000");
  EXPECT_EQ(TablePrinter::fmtInt(1234567), "1,234,567");
}

TEST(TablePrinter, PrintsWithoutCrashing) {
  TablePrinter Table({"A", "LongHeader", "C"});
  Table.addRow({"1", "2", "3"});
  Table.addSeparator();
  Table.addRow({"longer cell", "x"});
  std::FILE *Null = std::fopen("/dev/null", "w");
  ASSERT_NE(Null, nullptr);
  Table.print(Null);
  std::fclose(Null);
}

//===----------------------------------------------------------------------===//
// Timer
//===----------------------------------------------------------------------===//

TEST(Timer, Monotonic) {
  Timer T;
  uint64_t A = T.elapsedNs();
  uint64_t B = T.elapsedNs();
  EXPECT_GE(B, A);
}

TEST(Timer, RestartResets) {
  Timer T;
  volatile uint64_t Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  (void)Sink;
  uint64_t Before = T.elapsedNs();
  T.restart();
  EXPECT_LE(T.elapsedNs(), Before + 1000000);
}

//===----------------------------------------------------------------------===//
// ZipfDistribution
//===----------------------------------------------------------------------===//

TEST(Zipf, RanksInRange) {
  ZipfDistribution Zipf(100, 1.0);
  Xoshiro256 Rng(3);
  for (int I = 0; I < 2000; ++I)
    EXPECT_LT(Zipf(Rng), 100u);
}

TEST(Zipf, SkewConcentratesMass) {
  // With s=1.2 over 10k ranks, the top 1% carries most of the mass.
  ZipfDistribution Heavy(10000, 1.2);
  ZipfDistribution Uniform(10000, 0.0);
  EXPECT_GT(Heavy.topMass(100), 0.5);
  EXPECT_NEAR(Uniform.topMass(100), 0.01, 1e-9);
}

TEST(Zipf, TopMassMonotone) {
  ZipfDistribution Zipf(1000, 0.8);
  double Prev = 0.0;
  for (uint64_t K : {1ULL, 10ULL, 100ULL, 1000ULL}) {
    double Mass = Zipf.topMass(K);
    EXPECT_GT(Mass, Prev);
    Prev = Mass;
  }
  EXPECT_NEAR(Zipf.topMass(1000), 1.0, 1e-9);
}

TEST(Zipf, EmpiricalRankOrdering) {
  ZipfDistribution Zipf(64, 1.0);
  Xoshiro256 Rng(9);
  std::vector<int> Hits(64, 0);
  for (int I = 0; I < 50000; ++I)
    ++Hits[Zipf(Rng)];
  EXPECT_GT(Hits[0], Hits[8]);
  EXPECT_GT(Hits[1], Hits[32]);
  EXPECT_GT(Hits[0], 5 * Hits[63]);
}

//===----------------------------------------------------------------------===//
// FlatMap64
//===----------------------------------------------------------------------===//

TEST(FlatMap, InsertFindErase) {
  FlatMap64 Map;
  EXPECT_TRUE(Map.empty());
  EXPECT_EQ(Map.find(42), nullptr);
  EXPECT_TRUE(Map.tryInsert(42, 7));
  EXPECT_FALSE(Map.tryInsert(42, 9)); // Present: value unchanged.
  ASSERT_NE(Map.find(42), nullptr);
  EXPECT_EQ(*Map.find(42), 7u);
  EXPECT_EQ(Map.size(), 1u);
  EXPECT_TRUE(Map.erase(42));
  EXPECT_FALSE(Map.erase(42));
  EXPECT_TRUE(Map.empty());
}

TEST(FlatMap, FindOrInsertKeepsExistingValue) {
  FlatMap64 Map;
  EXPECT_EQ(Map.findOrInsert(5, 1), 1u); // Absent: inserted as default.
  EXPECT_EQ(Map.findOrInsert(5, 9), 1u); // Present: default ignored.
  Map.findOrInsert(5) = 2;               // The slot is writable.
  ASSERT_NE(Map.find(5), nullptr);
  EXPECT_EQ(*Map.find(5), 2u);
  EXPECT_EQ(Map.size(), 1u);
}

TEST(FlatMap, GrowsAndMatchesReferenceMap) {
  // Random interleaved insert/erase/lookup mirrored against std::map
  // semantics via a sorted vector check at the end.
  FlatMap64 Map;
  std::vector<std::pair<uint64_t, uint64_t>> Reference;
  Xoshiro256 Rng(0xF1A7ULL);
  for (unsigned I = 0; I < 20000; ++I) {
    uint64_t Key = Rng.nextBounded(4096);
    if (Rng.nextBounded(3) == 0) {
      bool Was = false;
      for (auto It = Reference.begin(); It != Reference.end(); ++It)
        if (It->first == Key) {
          Reference.erase(It);
          Was = true;
          break;
        }
      EXPECT_EQ(Map.erase(Key), Was);
    } else {
      bool Inserted = Map.tryInsert(Key, I);
      bool Expected = true;
      for (auto &[K, V] : Reference)
        if (K == Key)
          Expected = false;
      EXPECT_EQ(Inserted, Expected);
      if (Inserted)
        Reference.push_back({Key, I});
    }
  }
  EXPECT_EQ(Map.size(), Reference.size());
  for (auto &[K, V] : Reference) {
    ASSERT_NE(Map.find(K), nullptr) << "key " << K;
    EXPECT_EQ(*Map.find(K), V) << "key " << K;
  }
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce) {
  FlatMap64 Map;
  for (uint64_t K = 0; K < 500; ++K)
    Map.tryInsert(K * 977, K);
  std::set<uint64_t> Seen;
  Map.forEach([&](uint64_t Key, uint64_t Value) {
    EXPECT_EQ(Key, Value * 977);
    EXPECT_TRUE(Seen.insert(Key).second);
  });
  EXPECT_EQ(Seen.size(), 500u);
}

TEST(FlatMap, EraseKeepsProbeChainsIntact) {
  // Force a dense cluster of colliding keys, then erase from the middle
  // of the probe chain; the backward shift must keep the rest findable.
  FlatMap64 Map;
  std::vector<uint64_t> Keys;
  for (uint64_t K = 1; Keys.size() < 64; ++K)
    Keys.push_back(K);
  for (uint64_t K : Keys)
    Map.tryInsert(K, K * 10);
  for (size_t I = 0; I < Keys.size(); I += 3)
    EXPECT_TRUE(Map.erase(Keys[I]));
  for (size_t I = 0; I < Keys.size(); ++I) {
    if (I % 3 == 0) {
      EXPECT_EQ(Map.find(Keys[I]), nullptr);
    } else {
      ASSERT_NE(Map.find(Keys[I]), nullptr) << "key " << Keys[I];
      EXPECT_EQ(*Map.find(Keys[I]), Keys[I] * 10);
    }
  }
}

TEST(FlatMap, ClearEmptiesTheTable) {
  FlatMap64 Map;
  for (uint64_t K = 1; K <= 100; ++K)
    Map.tryInsert(K, K);
  Map.clear();
  EXPECT_TRUE(Map.empty());
  EXPECT_EQ(Map.find(50), nullptr);
  EXPECT_TRUE(Map.tryInsert(50, 1));
  EXPECT_EQ(Map.size(), 1u);
}
