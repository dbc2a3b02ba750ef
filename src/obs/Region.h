//===- obs/Region.h - Labeled address-range registry -----------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps simulated virtual addresses back to the structure that owns them.
/// Structures register the address ranges they own under a label
/// (structure name, optional color class), and the attribution sink
/// resolves every access event to its owner — the missing half of a
/// profiler: the simulator knows *that* an access missed, the registry
/// knows *whose* data it was.
///
/// Region ids are small dense integers: id 0 is the implicit
/// "(unknown)" region for unregistered addresses, so the sink can index
/// per-region counters with a plain vector.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_REGION_H
#define CCL_OBS_REGION_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ccl {
class ColoredArena;
namespace heap {
class CcHeap;
} // namespace heap
} // namespace ccl

namespace ccl::obs {

/// Identity of one registered structure (or one color class of it).
struct RegionInfo {
  std::string Name;
  /// "", "hot", or "cold" — set for colored-arena registrations.
  std::string ColorClass;
};

/// Registry of labeled, non-overlapping address ranges.
///
/// resolve() is on the observed hot path; ranges are kept sorted for
/// binary search and the last hit is cached (structure traversals have
/// strong range locality). Registration is rare (per page/frame/array)
/// and may interleave with resolution.
class RegionRegistry {
public:
  /// Id of the implicit catch-all region for unregistered addresses.
  static constexpr uint32_t Unknown = 0;

  RegionRegistry();

  /// Defines a region and returns its id. Regions are deduplicated by
  /// (Name, ColorClass): defining the same pair again returns the
  /// existing id (so re-registration after allocator growth is cheap).
  uint32_t define(RegionInfo Info);

  /// Convenience: define by name only.
  uint32_t define(std::string Name) {
    return define(RegionInfo{std::move(Name), {}});
  }

  /// Registers [Base, Base + Bytes) as owned by \p Id. Ranges must not
  /// overlap other regions' ranges; re-adding a range with the same base
  /// is a no-op (supports idempotent re-sync after allocator growth).
  void addRange(uint64_t Base, uint64_t Bytes, uint32_t Id);

  void addRange(const void *Base, size_t Bytes, uint32_t Id) {
    addRange(reinterpret_cast<uint64_t>(Base), uint64_t(Bytes), Id);
  }

  /// One-shot define + addRange.
  uint32_t registerRange(const void *Base, size_t Bytes, RegionInfo Info) {
    uint32_t Id = define(std::move(Info));
    addRange(Base, Bytes, Id);
    return Id;
  }

  /// Region owning \p Addr, or Unknown.
  uint32_t resolve(uint64_t Addr) const;

  /// Info for a region id (id Unknown yields the "(unknown)" record).
  const RegionInfo &info(uint32_t Id) const { return Regions[Id]; }

  /// Number of regions including the implicit unknown region, i.e. valid
  /// ids are [0, regionCount()).
  size_t regionCount() const { return Regions.size(); }

  size_t rangeCount() const { return Ranges.size(); }

  //===--------------------------------------------------------------===//
  // Allocator registration helpers. Each is idempotent: call again after
  // the allocator grew to pick up new pages/frames.
  //===--------------------------------------------------------------===//

  /// Registers a colored arena's frames as two regions: "<Name>" with
  /// color class "hot" for the hot slots and "cold" for the rest.
  /// Returns the hot region id (the cold id is the next one defined).
  uint32_t registerColoredArena(const ColoredArena &Storage,
                                std::string Name);

  /// Registers every page of a cache-conscious heap under \p Name.
  uint32_t registerHeap(const heap::CcHeap &Heap, std::string Name);

private:
  struct Range {
    uint64_t Base;
    uint64_t End; // exclusive
    uint32_t Id;
  };

  std::vector<RegionInfo> Regions;
  /// Sorted by Base; non-overlapping.
  std::vector<Range> Ranges;
  /// Index into Ranges of the last successful resolve (locality cache).
  mutable size_t LastRange = 0;
};

} // namespace ccl::obs

#endif // CCL_OBS_REGION_H
