//===- obs/Attribution.h - Per-structure cache profiling -------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling sink: consumes simulator events and attributes them to
/// the structure that owns each address (via a RegionRegistry), producing
/// the three signals the paper's tools are driven by:
///
///  * per-region hit/miss/cycle breakdowns — which structure is paying
///    the memory stalls (the ccmalloc/ccmorph targeting question);
///  * per-cache-set conflict histograms — whether misses are capacity or
///    conflict, and whether the colored hot sets stay conflict-free;
///  * cache-block utilization — of every L2 block fetched, what fraction
///    of its bytes were touched while it was resident. This is the
///    direct measure of clustering quality: perfect subtree clustering
///    approaches 1.0, random placement of small nodes sits near
///    sizeof(node)/BlockBytes.
///
/// It is the one consumer of simulator events: fig5 --profile attaches
/// it live and prints its report.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_ATTRIBUTION_H
#define CCL_OBS_ATTRIBUTION_H

#include "obs/Observer.h"
#include "obs/Region.h"
#include "sim/CacheConfig.h"

#include <cstdio>
#include <unordered_map>
#include <vector>

namespace ccl::obs {

/// Cache geometry the sink needs to bin events; derived from the
/// simulated hierarchy.
struct AttributionConfig {
  uint32_t L1BlockBytes = 16;
  uint64_t L1Sets = 1024;
  uint32_t L2BlockBytes = 64;
  uint64_t L2Sets = 16384;
  /// Hot (colored) L2 sets [0, HotSets); 0 if coloring is not in play.
  uint64_t HotSets = 0;

  static AttributionConfig fromHierarchy(const sim::HierarchyConfig &H,
                                         uint64_t HotSets = 0) {
    AttributionConfig Config;
    Config.L1BlockBytes = H.L1.BlockBytes;
    Config.L1Sets = H.L1.numSets();
    Config.L2BlockBytes = H.L2.BlockBytes;
    Config.L2Sets = H.L2.numSets();
    Config.HotSets = HotSets;
    return Config;
  }
};

/// Counters attributed to one region.
struct RegionProfile {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t L1Hits = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Hits = 0;
  uint64_t L2Misses = 0;
  uint64_t TlbMisses = 0;
  uint64_t PrefetchFullHits = 0;
  uint64_t PrefetchPartialHits = 0;
  /// Cycles charged to accesses of this region (hit latency + stalls).
  uint64_t Cycles = 0;
  /// Bytes the program touched in this region.
  uint64_t BytesAccessed = 0;

  // Block-utilization accounting (closed residencies only).
  uint64_t BlocksFetched = 0;
  uint64_t BytesFetched = 0;
  uint64_t BytesUsed = 0;
  /// Of the fetched blocks, how many were later evicted (the rest were
  /// still resident when the profile was finalized).
  uint64_t BlocksEvicted = 0;
  uint64_t Writebacks = 0;

  uint64_t references() const { return Reads + Writes; }
  double l1MissRate() const {
    uint64_t Total = L1Hits + L1Misses;
    return Total == 0 ? 0.0 : double(L1Misses) / double(Total);
  }
  double l2MissRate() const {
    uint64_t Total = L2Hits + L2Misses;
    return Total == 0 ? 0.0 : double(L2Misses) / double(Total);
  }
  /// Fraction of fetched bytes actually touched while resident.
  double blockUtilization() const {
    return BytesFetched == 0 ? 0.0 : double(BytesUsed) / double(BytesFetched);
  }

  RegionProfile &operator+=(const RegionProfile &Other);
};

/// Attribution sink: region breakdowns, set-conflict histograms, block
/// utilization. Attach to a MemoryHierarchy.
class AttributionSink : public SimObserver {
public:
  /// \param Registry resolves addresses to regions; must outlive the
  ///        sink.
  AttributionSink(const RegionRegistry &Registry,
                  const AttributionConfig &Config);

  /// Charges the access to the region that owns its virtual address.
  void onAccess(const AccessEvent &Event) override;
  /// Closes the evicted L2 block's residency.
  void onEvict(const EvictEvent &Event) override;

  /// Closes all still-resident block residencies so their utilization is
  /// counted. Call once after the run, before reading results; further
  /// events may follow (a new epoch of residencies begins).
  void finalize();

  //===--------------------------------------------------------------===//
  // Results.
  //===--------------------------------------------------------------===//

  /// Per-region profiles, indexed by region id (0 = unknown). Ids that
  /// never saw an event have all-zero profiles.
  const std::vector<RegionProfile> &regions() const { return PerRegion; }

  /// Sum over all regions.
  RegionProfile totals() const;

  const std::vector<uint64_t> &l1SetMisses() const { return L1SetMisses; }
  const std::vector<uint64_t> &l2SetMisses() const { return L2SetMisses; }
  const std::vector<uint64_t> &l2SetEvictions() const {
    return L2SetEvictions;
  }

  uint64_t accessEvents() const { return AccessEventCount; }

  /// Renders the per-structure report (region table, utilization, and
  /// the L2 set-conflict histogram) as fixed-width text.
  void printReport(std::FILE *Out = stdout) const;

private:
  struct Residency {
    uint32_t Region = RegionRegistry::Unknown;
    /// Byte-granularity touched bitmap; supports blocks up to 128 bytes.
    uint64_t Touched[2] = {0, 0};
  };

  void ensureRegion(uint32_t Region) {
    if (Region >= PerRegion.size())
      PerRegion.resize(Region + 1);
  }
  void markTouched(Residency &R, uint32_t Offset, uint32_t Size);
  void closeResidency(uint64_t Block, const Residency &R, bool Evicted,
                      bool Writeback);

  const RegionRegistry *Registry;
  AttributionConfig Config;
  std::vector<RegionProfile> PerRegion;
  std::vector<uint64_t> L1SetMisses;
  std::vector<uint64_t> L2SetMisses;
  std::vector<uint64_t> L2SetEvictions;
  /// Mapped L2 block number -> live residency.
  std::unordered_map<uint64_t, Residency> Resident;
  uint64_t AccessEventCount = 0;
};

} // namespace ccl::obs

#endif // CCL_OBS_ATTRIBUTION_H
