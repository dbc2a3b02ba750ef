//===- core/OffsetLayout.h - Colored cluster placement ---------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one colored placement (paper §2.2, Figure 2): assigns each
/// cluster a byte offset in a region made of cache-capacity frames,
/// where the offset within a frame decides the cache set. Offsets
/// mapping to sets [0, p) are hot slots, the rest cold, and no cluster
/// straddles a cache block. The hot-budget rule lives here too: a
/// cluster goes hot while the hot region's conflict-free capacity
/// (p * a * b bytes) lasts.
///
/// The 32-bit-offset structures (CompactTree, CompactBTree, the implicit
/// octree) plan their whole region with it before allocating it, since
/// their links are offsets from the region base; ColoredArena backs the
/// same offsets with live frames for ccmorph.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_CORE_OFFSETLAYOUT_H
#define CCL_CORE_OFFSETLAYOUT_H

#include "core/CacheParams.h"

#include <algorithm>
#include <cassert>

namespace ccl {

/// Plans cluster placements with coloring; clusters never straddle a
/// cache block. Offsets are relative to a region base that the caller
/// later allocates aligned to the cache frame size.
class OffsetLayout {
public:
  OffsetLayout(const CacheParams &Params, bool Color)
      : FrameBytes(Params.CacheSets * Params.BlockBytes),
        HotBytes(Color ? Params.HotSets * Params.BlockBytes : 0),
        BlockBytes(Params.BlockBytes),
        HotBudget(Color ? Params.hotCapacityBytes() : 0) {}

  /// Returns the byte offset for a cluster of \p Bytes, hot while the
  /// budget lasts (a cluster is charged its block-aligned footprint);
  /// sets \p WasHot.
  uint64_t place(size_t Bytes, bool &WasHot) {
    uint64_t Footprint = alignUp(Bytes, BlockBytes);
    WasHot = HotBytes > 0 && HotBudget >= Footprint;
    if (WasHot)
      HotBudget -= Footprint;
    return placeIn(Bytes, WasHot);
  }

  /// Returns the byte offset for a cluster of \p Bytes in the region the
  /// caller chose; the budget is not charged (profile-guided coloring
  /// ranks clusters itself).
  uint64_t placeIn(size_t Bytes, bool Hot) {
    Cursor &C = Hot ? HotCursor : ColdCursor;
    uint64_t RegionBase = Hot ? 0 : HotBytes;
    uint64_t RegionSize = Hot ? HotBytes : FrameBytes - HotBytes;
    assert(Bytes > 0 && Bytes <= RegionSize &&
           "cluster exceeds colored region");

    for (;;) {
      uint64_t Offset = C.Frame * FrameBytes + RegionBase + C.Pos;
      // Never straddle a cache block (larger clusters start on one).
      if (alignDown(Offset, BlockBytes) !=
          alignDown(Offset + Bytes - 1, BlockBytes))
        Offset = alignUp(Offset, BlockBytes);
      uint64_t NewPos = Offset + Bytes - (C.Frame * FrameBytes + RegionBase);
      if (NewPos <= RegionSize) {
        C.Pos = NewPos;
        End = std::max(End, Offset + Bytes);
        return Offset;
      }
      // This frame's region is exhausted: the skipped tail is an
      // address-space gap, never touched.
      ++C.Frame;
      C.Pos = 0;
    }
  }

  /// Total region size to allocate (frame-aligned).
  uint64_t regionBytes() const {
    return std::max<uint64_t>(alignUp(End, FrameBytes), FrameBytes);
  }

  /// The required alignment of the region base.
  uint64_t regionAlign(const CacheParams &Params) const {
    return std::max<uint64_t>(FrameBytes, Params.PageBytes);
  }

private:
  struct Cursor {
    uint64_t Frame = 0;
    uint64_t Pos = 0;
  };
  uint64_t FrameBytes;
  uint64_t HotBytes;
  uint32_t BlockBytes;
  uint64_t HotBudget;
  Cursor HotCursor;
  Cursor ColdCursor;
  uint64_t End = 0;
};

} // namespace ccl

#endif // CCL_CORE_OFFSETLAYOUT_H
