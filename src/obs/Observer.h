//===- obs/Observer.h - Simulator event observer interface -----*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event interface between the memory-hierarchy simulator and the
/// attribution sink (obs/Attribution.h). A SimObserver attached to a
/// MemoryHierarchy receives one AccessEvent per simulated L1-block
/// access (the same granularity at which SimStats counts Reads/Writes)
/// and one EvictEvent per L2 block eviction: exactly what the sink needs
/// to charge misses and block residencies to structures.
///
/// Contract with the simulator (see sim/MemoryHierarchy.h):
///
///  * Disabled is free: with no observer attached, the only cost is a
///    single always-false pointer compare per read()/write()/replay()
///    call (and per prefetched block retired into the caches); no event
///    structs are built and no virtual calls happen.
///  * Enabled is bit-identical: live and replayed accesses, observed or
///    not, walk their L1 blocks through one loop that runs the same
///    per-block simulation, so all SimStats/cache/TLB counters are
///    exactly the numbers an unobserved run produces
///    (tests/sim_golden_test.cpp locks this down).
///  * Access events carry both the program's virtual address (for
///    attribution against allocator-registered regions) and the
///    simulator's deterministic mapped address (for set-index analysis).
///
/// This header is intentionally free-standing (no sim/ includes) so the
/// simulator can depend on it without a library cycle: ccl_sim sees only
/// this interface; the sink lives in ccl_obs.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_OBSERVER_H
#define CCL_OBS_OBSERVER_H

#include <cstdint>

namespace ccl::obs {

/// Where an access was satisfied. Memory/PrefetchFull/PrefetchPartial
/// all mean "missed both caches" (an L2 fill happened); the prefetch
/// variants record that an in-flight prefetch hid all or part of the
/// memory latency.
enum class AccessLevel : uint8_t {
  L1Hit,
  L2Hit,
  Memory,
  PrefetchFull,
  PrefetchPartial,
};

/// One simulated L1-block access.
struct AccessEvent {
  /// First byte the program actually touched within this block access.
  uint64_t VAddr = 0;
  /// Deterministic simulated-physical address of VAddr (what the caches
  /// index on).
  uint64_t Mapped = 0;
  /// Bytes touched within this L1 block (1 .. L1 block size).
  uint32_t Size = 0;
  bool IsWrite = false;
  bool TlbMiss = false;
  AccessLevel Level = AccessLevel::L1Hit;
  /// Cycles charged for this access, including all stalls.
  uint32_t Cycles = 0;
};

/// A block evicted from the L2 (capacity/conflict replacement).
struct EvictEvent {
  /// True if the victim was dirty (a write-back was charged).
  bool Writeback = false;
  /// Mapped byte address of the evicted block's base.
  uint64_t MappedBlockAddr = 0;
};

/// Abstract sink for simulator events. Implementations must not touch
/// the MemoryHierarchy that is delivering the event (re-entrancy is not
/// supported); reading configuration is fine.
class SimObserver {
public:
  virtual ~SimObserver() = default;

  virtual void onAccess(const AccessEvent &Event) = 0;
  virtual void onEvict(const EvictEvent &Event) { (void)Event; }
};

} // namespace ccl::obs

#endif // CCL_OBS_OBSERVER_H
