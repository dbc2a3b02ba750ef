//===- obs/Observer.h - Simulator event observer interface -----*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event interface between the memory-hierarchy simulator and the
/// telemetry subsystem. A SimObserver attached to a MemoryHierarchy
/// receives one AccessEvent per simulated L1-block access (the same
/// granularity at which SimStats counts Reads/Writes), plus eviction and
/// prefetch events.
///
/// Contract with the simulator (see sim/MemoryHierarchy.h):
///
///  * Disabled is free: with no observer attached, the only cost is a
///    single always-false pointer compare per read()/write(); no event
///    structs are built and no virtual calls happen.
///  * Enabled is bit-identical: attaching an observer routes every
///    access, live or replayed, through an observed twin of the access
///    loop that runs the same per-block simulation, so all
///    SimStats/cache/TLB counters are exactly the numbers an unobserved
///    run produces (tests/sim_golden_test.cpp locks this down).
///  * Events carry both the program's virtual address (for attribution
///    against allocator-registered regions) and the simulator's
///    deterministic mapped address (for set-index analysis).
///
/// This header is intentionally free-standing (no sim/ includes) so the
/// simulator can depend on it without a library cycle: ccl_sim sees only
/// this interface; the concrete sinks live in ccl_obs.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_OBSERVER_H
#define CCL_OBS_OBSERVER_H

#include <cstdint>
#include <vector>

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

/// Returns a short name ("l1", "l2", "mem", "pf-full", "pf-part").
inline const char *accessLevelName(AccessLevel Level) {
  switch (Level) {
  case AccessLevel::L1Hit:
    return "l1";
  case AccessLevel::L2Hit:
    return "l2";
  case AccessLevel::Memory:
    return "mem";
  case AccessLevel::PrefetchFull:
    return "pf-full";
  case AccessLevel::PrefetchPartial:
    return "pf-part";
  }
  return "?";
}

/// True if \p Level implies a fresh L2 block fill.
inline bool isL2Fill(AccessLevel Level) {
  return Level == AccessLevel::Memory || Level == AccessLevel::PrefetchFull ||
         Level == AccessLevel::PrefetchPartial;
}

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
  /// Simulated cycle after the access completed.
  uint64_t Now = 0;
};

/// A block evicted from a cache level (capacity/conflict replacement).
struct EvictEvent {
  /// 1 or 2.
  uint8_t Level = 0;
  /// True if the victim was dirty (a write-back was charged).
  bool Writeback = false;
  /// Mapped byte address of the evicted block's base.
  uint64_t MappedBlockAddr = 0;
  uint64_t Now = 0;
};

/// A software or hardware prefetch issue.
struct PrefetchEvent {
  uint64_t VAddr = 0;
  uint64_t Mapped = 0;
  /// True for ccl::sim::MemoryHierarchy::prefetch(), false for the
  /// hardware next-line prefetcher.
  bool Software = true;
  uint64_t Now = 0;
};

/// Abstract sink for simulator events. Implementations must not touch
/// the MemoryHierarchy that is delivering the event (re-entrancy is not
/// supported); reading configuration is fine.
class SimObserver {
public:
  virtual ~SimObserver() = default;

  virtual void onAccess(const AccessEvent &Event) = 0;
  virtual void onEvict(const EvictEvent &Event) { (void)Event; }
  virtual void onPrefetch(const PrefetchEvent &Event) { (void)Event; }
};

/// Fans events out to several observers in attach order (e.g. an
/// AttributionSink plus a TraceSink in the same run).
class MultiObserver : public SimObserver {
public:
  MultiObserver() = default;
  explicit MultiObserver(std::vector<SimObserver *> Sinks)
      : Sinks(std::move(Sinks)) {}

  void add(SimObserver *Sink) {
    if (Sink)
      Sinks.push_back(Sink);
  }

  void onAccess(const AccessEvent &Event) override {
    for (SimObserver *Sink : Sinks)
      Sink->onAccess(Event);
  }
  void onEvict(const EvictEvent &Event) override {
    for (SimObserver *Sink : Sinks)
      Sink->onEvict(Event);
  }
  void onPrefetch(const PrefetchEvent &Event) override {
    for (SimObserver *Sink : Sinks)
      Sink->onPrefetch(Event);
  }

private:
  std::vector<SimObserver *> Sinks;
};

} // namespace ccl::obs

#endif // CCL_OBS_OBSERVER_H
