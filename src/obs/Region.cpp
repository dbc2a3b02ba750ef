//===- obs/Region.cpp - Labeled address-range registry --------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Region.h"

#include "core/ColoredArena.h"
#include "heap/CcHeap.h"

#include <algorithm>
#include <cassert>

using namespace ccl::obs;

RegionRegistry::RegionRegistry() {
  Regions.push_back(RegionInfo{"(unknown)", {}});
}

uint32_t RegionRegistry::define(RegionInfo Info) {
  for (size_t I = 1; I < Regions.size(); ++I)
    if (Regions[I].Name == Info.Name &&
        Regions[I].ColorClass == Info.ColorClass)
      return uint32_t(I);
  Regions.push_back(std::move(Info));
  return uint32_t(Regions.size() - 1);
}

void RegionRegistry::addRange(uint64_t Base, uint64_t Bytes, uint32_t Id) {
  assert(Id < Regions.size() && "unknown region id");
  if (Bytes == 0)
    return;
  Range New{Base, Base + Bytes, Id};
  auto It = std::lower_bound(
      Ranges.begin(), Ranges.end(), New,
      [](const Range &A, const Range &B) { return A.Base < B.Base; });
  // Idempotent re-sync: a range starting at the same base is the same
  // allocation seen again (pages/frames never move or shrink).
  if (It != Ranges.end() && It->Base == Base) {
    It->End = std::max(It->End, New.End);
    return;
  }
  assert((It == Ranges.end() || New.End <= It->Base) &&
         (It == Ranges.begin() || std::prev(It)->End <= Base) &&
         "overlapping region ranges");
  Ranges.insert(It, New);
  LastRange = 0;
}

uint32_t RegionRegistry::resolve(uint64_t Addr) const {
  if (Ranges.empty())
    return Unknown;
  // Locality cache: pointer chases stay inside one structure for many
  // consecutive accesses.
  if (LastRange < Ranges.size()) {
    const Range &Cached = Ranges[LastRange];
    if (Addr >= Cached.Base && Addr < Cached.End)
      return Cached.Id;
  }
  // Last range with Base <= Addr.
  auto It = std::upper_bound(
      Ranges.begin(), Ranges.end(), Addr,
      [](uint64_t A, const Range &R) { return A < R.Base; });
  if (It == Ranges.begin())
    return Unknown;
  --It;
  if (Addr >= It->End)
    return Unknown;
  LastRange = size_t(It - Ranges.begin());
  return It->Id;
}

uint32_t RegionRegistry::registerColoredArena(const ColoredArena &Storage,
                                              std::string Name) {
  uint32_t HotId = define(RegionInfo{Name, "hot"});
  uint32_t ColdId = define(RegionInfo{std::move(Name), "cold"});
  Storage.forEachFrame([&](const char *Frame, uint64_t FrameBytes,
                           uint64_t HotBytes) {
    if (HotBytes > 0)
      addRange(Frame, size_t(HotBytes), HotId);
    if (FrameBytes > HotBytes)
      addRange(Frame + HotBytes, size_t(FrameBytes - HotBytes), ColdId);
  });
  return HotId;
}

uint32_t RegionRegistry::registerHeap(const heap::CcHeap &Heap,
                                      std::string Name) {
  uint32_t Id = define(RegionInfo{std::move(Name), {}});
  Heap.forEachPage(
      [&](const char *Base, size_t Bytes) { addRange(Base, Bytes, Id); });
  return Id;
}
