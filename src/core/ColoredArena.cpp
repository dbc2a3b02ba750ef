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

void ColoredArena::restart(const CacheParams &ParamsIn) {
  assert(ParamsIn.CacheSets * ParamsIn.BlockBytes == FrameBytes &&
         "restart must keep the frame size");
  Params = ParamsIn;
  HotBytes = Params.HotSets * Params.BlockBytes;
  Layout = OffsetLayout(Params, /*Color=*/true);
  Placed = 0;
}

void ColoredArena::ensureFrame(size_t Index) {
  for (; Placed <= Index; ++Placed)
    if (Placed == Frames.size())
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
