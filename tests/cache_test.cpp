//===- tests/cache_test.cpp - Cache level unit tests ------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace ccl;
using namespace ccl::sim;

namespace {

CacheConfig smallDm() { return {1024, 64, 1, 1}; } // 16 sets.
CacheConfig small2Way() { return {2048, 64, 2, 1} /* 16 sets */; }

/// Reference model: timestamp LRU, the algorithm the cache level used
/// before it kept each set's ways in recency order. Every way holds a
/// tag, a last-use stamp and a dirty bit; a fill takes the first invalid
/// way, else the way with the oldest stamp. Plain division and modulo,
/// so it shares no arithmetic with the shift-and-mask implementation.
class StampLruCache {
public:
  explicit StampLruCache(const CacheConfig &Config)
      : Config(Config), Ways(Config.numSets() * Config.Associativity) {}

  CacheAccessResult access(uint64_t Addr, bool IsWrite) {
    return lookupOrFill(Addr, IsWrite, /*Demand=*/true);
  }
  CacheAccessResult install(uint64_t Addr, bool Dirty) {
    return lookupOrFill(Addr, Dirty, /*Demand=*/false);
  }

  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Writebacks = 0;

private:
  struct Way {
    bool Valid = false;
    bool Dirty = false;
    uint64_t Block = 0;
    uint64_t Stamp = 0;
  };

  CacheAccessResult lookupOrFill(uint64_t Addr, bool Dirty, bool Demand) {
    uint64_t Block = Addr / Config.BlockBytes;
    Way *Set = &Ways[(Block % Config.numSets()) * Config.Associativity];
    ++Clock;
    for (uint32_t I = 0; I < Config.Associativity; ++I) {
      if (Set[I].Valid && Set[I].Block == Block) {
        Set[I].Stamp = Clock;
        Set[I].Dirty |= Dirty;
        Hits += Demand;
        return {/*Hit=*/true, false, 0, false};
      }
    }
    Misses += Demand;
    uint32_t Victim = 0;
    for (uint32_t I = 0; I < Config.Associativity; ++I) {
      if (!Set[I].Valid) {
        Victim = I;
        break;
      }
      if (Set[I].Stamp < Set[Victim].Stamp)
        Victim = I;
    }
    CacheAccessResult Result;
    Way &V = Set[Victim];
    if (V.Valid) {
      Result.Evicted = true;
      Result.VictimBlock = V.Block;
      Result.WritebackVictim = V.Dirty;
      Writebacks += V.Dirty;
      ++Evictions;
    }
    V = {true, Dirty, Block, Clock};
    return Result;
  }

  CacheConfig Config;
  std::vector<Way> Ways;
  uint64_t Clock = 0;
};

} // namespace

TEST(CacheConfig, Geometry) {
  CacheConfig C = smallDm();
  EXPECT_EQ(C.numSets(), 16u);
  EXPECT_EQ(C.numBlocks(), 16u);
  // A block's set is its number modulo numSets(): block 16 wraps onto
  // set 0 and evicts block 0, while block 17 sits in set 1.
  Cache Dm(C);
  Dm.access(64 * 17, false);
  Dm.access(0, false);
  Dm.access(64 * 16, false);
  EXPECT_FALSE(Dm.contains(0));
  EXPECT_TRUE(Dm.contains(64 * 17));
  EXPECT_TRUE(Dm.contains(64 * 16 + 63)); // Same 64-byte block.
}

TEST(CacheConfig, Validity) {
  EXPECT_TRUE(smallDm().isValid());
  EXPECT_TRUE(small2Way().isValid());
  CacheConfig Bad{1000, 64, 1, 1}; // Not a power of two.
  EXPECT_FALSE(Bad.isValid());
  CacheConfig TooSmall{64, 128, 1, 1};
  EXPECT_FALSE(TooSmall.isValid());
}

TEST(CacheConfig, Presets) {
  HierarchyConfig E = HierarchyConfig::ultraSparcE5000();
  EXPECT_TRUE(E.isValid());
  EXPECT_EQ(E.L1.CapacityBytes, 16u * 1024);
  EXPECT_EQ(E.L1.BlockBytes, 16u);
  EXPECT_EQ(E.L2.CapacityBytes, 1024u * 1024);
  EXPECT_EQ(E.L2.BlockBytes, 64u);
  EXPECT_EQ(E.MemoryLatency, 64u);

  HierarchyConfig R = HierarchyConfig::rsimTable1();
  EXPECT_TRUE(R.isValid());
  EXPECT_EQ(R.L2.Associativity, 2u);
  EXPECT_EQ(R.L2.BlockBytes, 128u);
  EXPECT_EQ(R.MemoryLatency, 60u);
}

TEST(Cache, ColdMissThenHit) {
  Cache C(smallDm());
  EXPECT_FALSE(C.access(0x1000, false).Hit);
  EXPECT_TRUE(C.access(0x1000, false).Hit);
  EXPECT_TRUE(C.access(0x103F, false).Hit); // Same 64-byte block.
  EXPECT_FALSE(C.access(0x1040, false).Hit); // Next block.
  EXPECT_EQ(C.hits(), 2u);
  EXPECT_EQ(C.misses(), 2u);
}

TEST(Cache, DirectMappedConflict) {
  Cache C(smallDm());
  // 16 sets of 64B: addresses 0 and 1024 map to set 0.
  C.access(0, false);
  C.access(1024, false);
  EXPECT_FALSE(C.contains(0));
  EXPECT_TRUE(C.contains(1024));
  EXPECT_FALSE(C.access(0, false).Hit); // Evicted.
}

TEST(Cache, TwoWayAbsorbsOneConflict) {
  Cache C(small2Way());
  C.access(0, false);
  C.access(1024, false); // Same set, second way.
  EXPECT_TRUE(C.contains(0));
  EXPECT_TRUE(C.contains(1024));
  C.access(2048, false); // Third block in set evicts LRU (addr 0).
  EXPECT_FALSE(C.contains(0));
  EXPECT_TRUE(C.contains(1024));
  EXPECT_TRUE(C.contains(2048));
}

TEST(Cache, LruOrderRespectsUse) {
  Cache C(small2Way());
  C.access(0, false);
  C.access(1024, false);
  C.access(0, false); // Touch 0: now 1024 is LRU.
  C.access(2048, false);
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(1024));
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache C(smallDm());
  C.access(0, /*IsWrite=*/true);
  CacheAccessResult R = C.access(1024, false); // Evicts dirty block 0.
  EXPECT_TRUE(R.Evicted);
  EXPECT_TRUE(R.WritebackVictim);
  EXPECT_EQ(R.VictimBlock, 0u);
  EXPECT_EQ(C.writebacks(), 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache C(smallDm());
  C.access(0, false);
  CacheAccessResult R = C.access(1024, false);
  EXPECT_TRUE(R.Evicted);
  EXPECT_FALSE(R.WritebackVictim);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache C(smallDm());
  C.access(0, false);
  C.access(0, true); // Write hit dirties the line.
  CacheAccessResult R = C.access(1024, false);
  EXPECT_TRUE(R.WritebackVictim);
}

TEST(Cache, InstallIsIdempotent) {
  Cache C(smallDm());
  C.install(0x2000);
  CacheAccessResult R = C.install(0x2000);
  EXPECT_TRUE(R.Hit);
  EXPECT_TRUE(C.contains(0x2000));
  EXPECT_EQ(C.misses(), 0u); // install() does not count demand stats.
}

TEST(Cache, ResetClearsEverything) {
  Cache C(smallDm());
  C.access(0, true);
  C.access(64, false);
  C.reset();
  EXPECT_EQ(C.hits(), 0u);
  EXPECT_EQ(C.misses(), 0u);
  EXPECT_FALSE(C.contains(0));
}

TEST(Cache, WorkingSetFitsNoCapacityMisses) {
  Cache C(smallDm());
  // Touch every block once (cold), then re-touch: all hits.
  for (uint64_t B = 0; B < 16; ++B)
    C.access(B * 64, false);
  uint64_t MissesAfterWarmup = C.misses();
  for (int Round = 0; Round < 10; ++Round)
    for (uint64_t B = 0; B < 16; ++B)
      C.access(B * 64, false);
  EXPECT_EQ(C.misses(), MissesAfterWarmup);
}

TEST(Cache, StreamLargerThanCapacityAlwaysMisses) {
  Cache C(smallDm());
  // 32 blocks cycled through a 16-block direct-mapped cache with
  // stride = capacity: every access conflicts.
  for (int Round = 0; Round < 4; ++Round)
    for (uint64_t B = 0; B < 2; ++B)
      C.access(B * 1024, false); // Both map to set 0.
  EXPECT_EQ(C.hits(), 0u);
}

//===----------------------------------------------------------------------===//
// Parameterized property sweep over geometries.
//===----------------------------------------------------------------------===//

struct GeometryParam {
  uint64_t Capacity;
  uint32_t Block;
  uint32_t Assoc;
};

class CacheGeometry : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(CacheGeometry, AccessedBlockIsResident) {
  auto [Capacity, Block, Assoc] = GetParam();
  Cache C(CacheConfig{Capacity, Block, Assoc, 1});
  Xoshiro256 Rng(99);
  for (int I = 0; I < 2000; ++I) {
    uint64_t Addr = Rng.nextBounded(1 << 22);
    C.access(Addr, Rng.nextBounded(2) == 0);
    EXPECT_TRUE(C.contains(Addr));
  }
}

TEST_P(CacheGeometry, ResidentBlocksBoundedByCapacity) {
  auto [Capacity, Block, Assoc] = GetParam();
  CacheConfig Config{Capacity, Block, Assoc, 1};
  Cache C(Config);
  std::set<uint64_t> Touched;
  Xoshiro256 Rng(7);
  for (int I = 0; I < 3000; ++I) {
    uint64_t Addr = Rng.nextBounded(1 << 22);
    C.access(Addr, false);
    Touched.insert(Addr / Block);
  }
  uint64_t Resident = 0;
  for (uint64_t B : Touched)
    Resident += C.contains(B * Block) ? 1 : 0;
  EXPECT_LE(Resident, Config.numBlocks());
}

TEST_P(CacheGeometry, HitsPlusMissesEqualsAccesses) {
  auto [Capacity, Block, Assoc] = GetParam();
  Cache C(CacheConfig{Capacity, Block, Assoc, 1});
  Xoshiro256 Rng(3);
  const int N = 5000;
  for (int I = 0; I < N; ++I)
    C.access(Rng.nextBounded(1 << 20), false);
  EXPECT_EQ(C.hits() + C.misses(), static_cast<uint64_t>(N));
}

TEST_P(CacheGeometry, MatchesTimestampLruReference) {
  // Random reads, writes and prefetch-style installs over 4x capacity,
  // so every set sees hits at every recency depth, clean and dirty
  // evictions, and installs of both resident and absent blocks.
  auto [Capacity, Block, Assoc] = GetParam();
  CacheConfig Config{Capacity, Block, Assoc, 1};
  Cache C(Config);
  StampLruCache Ref(Config);
  Xoshiro256 Rng(Capacity + Block + Assoc);
  uint64_t Ops = std::max<uint64_t>(20000, 8 * Config.numBlocks());
  for (uint64_t I = 0; I < Ops; ++I) {
    uint64_t Addr = Rng.nextBounded(4 * Capacity);
    uint64_t Kind = Rng.nextBounded(8);
    CacheAccessResult Got, Want;
    if (Kind < 7) {
      bool IsWrite = Kind >= 5;
      Got = C.access(Addr, IsWrite);
      Want = Ref.access(Addr, IsWrite);
    } else {
      bool Dirty = Rng.nextBounded(2) == 0;
      Got = C.install(Addr, Dirty);
      Want = Ref.install(Addr, Dirty);
    }
    ASSERT_EQ(Got.Hit, Want.Hit) << "op " << I;
    ASSERT_EQ(Got.Evicted, Want.Evicted) << "op " << I;
    ASSERT_EQ(Got.VictimBlock, Want.VictimBlock) << "op " << I;
    ASSERT_EQ(Got.WritebackVictim, Want.WritebackVictim) << "op " << I;
    ASSERT_EQ(C.hits(), Ref.Hits) << "op " << I;
    ASSERT_EQ(C.misses(), Ref.Misses) << "op " << I;
    ASSERT_EQ(C.evictions(), Ref.Evictions) << "op " << I;
    ASSERT_EQ(C.writebacks(), Ref.Writebacks) << "op " << I;
  }
}

TEST_P(CacheGeometry, FullAssociativityWithinOneSet) {
  auto [Capacity, Block, Assoc] = GetParam();
  CacheConfig Config{Capacity, Block, Assoc, 1};
  Cache C(Config);
  // Assoc blocks mapping to the same set must all be resident.
  uint64_t SetStride = Config.numSets() * Block;
  for (uint32_t Way = 0; Way < Assoc; ++Way)
    C.access(Way * SetStride, false);
  for (uint32_t Way = 0; Way < Assoc; ++Way)
    EXPECT_TRUE(C.contains(Way * SetStride)) << "way " << Way;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(GeometryParam{1024, 64, 1},
                      GeometryParam{2048, 64, 2},
                      GeometryParam{4096, 32, 4},
                      GeometryParam{16 * 1024, 16, 1},
                      GeometryParam{256 * 1024, 128, 2},
                      GeometryParam{1024 * 1024, 64, 1},
                      GeometryParam{8192, 128, 8}));
