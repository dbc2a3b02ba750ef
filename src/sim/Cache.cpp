//===- sim/Cache.cpp - One set-associative LRU cache level ----------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"

#include <algorithm>

using namespace ccl::sim;

Cache::Cache(const CacheConfig &Config)
    : Config(Config), SetMask(Config.numSets() - 1),
      BlockShift(log2Exact(Config.BlockBytes)),
      AssocShift(log2Exact(Config.Associativity)),
      Assoc(Config.Associativity),
      Ways(Config.numSets() * Config.Associativity, EmptyWay) {
  assert(Config.isValid() && "invalid cache configuration");
  assert(isPowerOf2(Config.numSets()) && "set count must be a power of two");
}

bool Cache::contains(uint64_t Addr) const {
  uint64_t Block = Addr >> BlockShift;
  const uint64_t *Set = &Ways[(Block & SetMask) << AssocShift];
  for (uint32_t Pos = 0; Pos < Assoc; ++Pos)
    if ((Set[Pos] ^ (Block << 1)) <= 1)
      return true;
  return false;
}

void Cache::reset() {
  std::fill(Ways.begin(), Ways.end(), EmptyWay);
  Hits = Misses = Evictions = Writebacks = 0;
}
