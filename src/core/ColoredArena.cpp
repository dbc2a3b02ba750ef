//===- core/ColoredArena.cpp - Cache-colored address allocation ------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "core/ColoredArena.h"

#include <bit>

using namespace ccl;

ColoredArena::ColoredArena(const CacheParams &ParamsIn)
    : Params(ParamsIn),
      FrameBytes(Params.CacheSets * Params.BlockBytes),
      HotBytes(Params.HotSets * Params.BlockBytes),
      FrameShift(static_cast<unsigned>(std::countr_zero(FrameBytes))),
      Layout(Params, /*Color=*/true) {
  assert(Params.isValid() && "invalid cache parameters");
  assert(FrameBytes >= 4096 && "cache too small to frame-align");
}

void ColoredArena::ensureFrame(size_t Index) {
  while (Frames.size() <= Index)
    Frames.push_back(allocateAligned(FrameBytes, FrameBytes));
}

uint64_t ColoredArena::setOf(const void *Ptr) const {
  return Params.setOf(addrOf(Ptr));
}

bool ColoredArena::isHot(const void *Ptr) const {
  return setOf(Ptr) < Params.HotSets;
}

bool ColoredArena::gapsArePageMultiple() const {
  return isAligned(HotBytes, Params.PageBytes) &&
         isAligned(FrameBytes - HotBytes, Params.PageBytes);
}
