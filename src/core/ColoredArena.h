//===- core/ColoredArena.h - Cache-colored address allocation --*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live memory behind OffsetLayout's colored offsets, for ccmorph. The
/// arena is a sequence of cache-capacity "frames", each aligned to the
/// cache size, so an allocation's offset within its frame decides its
/// cache set. Bytes mapping to sets [0, p) are *hot* slots; the
/// remainder are *cold*. Hot allocations therefore can only conflict
/// with other hot data (and an `a`-way cache absorbs `a` frames of hot
/// data with no conflicts at all), and cold allocations can never evict
/// them (paper §2.2, Figure 2). Where each allocation goes is decided by
/// the one colored placement, OffsetLayout; the arena only maps its
/// offsets onto frames.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_CORE_COLOREDARENA_H
#define CCL_CORE_COLOREDARENA_H

#include "core/CacheParams.h"
#include "core/OffsetLayout.h"
#include "support/Align.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccl {

/// Colored frames backing one OffsetLayout.
///
/// Allocations never straddle a cache block, the hot/cold boundary or a
/// frame boundary; the resulting gaps are address-space only — on
/// demand-paged systems untouched gap pages are never committed, which
/// is why the paper keeps gaps page-multiple (`gapsArePageMultiple()`
/// reports whether the chosen `p` satisfies that).
///
/// Not thread-safe: the layout cursors and the frame vector are
/// unsynchronized, and the allocation *sequence* is what makes a layout
/// deterministic. Each CcMorph owns its arena, so concurrent morphs
/// never share one. Once handed out, an allocation's bytes are never
/// touched by the arena again.
class ColoredArena {
public:
  explicit ColoredArena(const CacheParams &Params);

  /// Allocates a cluster of \p Bytes, hot while the hot region's
  /// conflict-free capacity lasts (OffsetLayout::place); sets \p WasHot.
  ///
  /// Inline: ccmorph performs one colored allocation per cluster, which
  /// at a couple of nodes per block means one call every few nodes.
  void *allocate(size_t Bytes, bool &WasHot) {
    return at(Layout.place(Bytes, WasHot));
  }

  /// Allocates a cluster of \p Bytes in the region the caller chose:
  /// sets [0, HotSets) if \p Hot, the rest otherwise. Used for
  /// profile-guided coloring, which ranks clusters itself.
  void *allocateIn(size_t Bytes, bool Hot) {
    return at(Layout.placeIn(Bytes, Hot));
  }

  /// The cache set the given pointer maps to.
  uint64_t setOf(const void *Ptr) const;

  /// True if the pointer lies in a hot slot of some frame.
  bool isHot(const void *Ptr) const;

  const CacheParams &params() const { return Params; }

  /// Bytes of hot address space per frame (p * b).
  uint64_t hotBytesPerFrame() const { return HotBytes; }

  /// True if the coloring gaps are multiples of the VM page size, the
  /// paper's requirement for not touching gap pages.
  bool gapsArePageMultiple() const;

  uint64_t framesAllocated() const { return Frames.size(); }

  /// Invokes \p Callback(FrameBase, FrameBytes, HotBytes) for every
  /// allocated frame: [FrameBase, FrameBase + HotBytes) are the frame's
  /// hot slots, the rest is cold. Used for telemetry region registration.
  template <typename Fn> void forEachFrame(Fn &&Callback) const {
    for (const AlignedBuffer &Frame : Frames)
      Callback(Frame.get(), FrameBytes, HotBytes);
  }

private:
  /// The address of layout offset \p Offset. Frames are a power of two
  /// bytes, so the lookup shifts and masks (no division per cluster).
  void *at(uint64_t Offset) {
    uint64_t Frame = Offset >> FrameShift;
    if (Frame >= Frames.size())
      ensureFrame(Frame);
    return Frames[Frame].get() + (Offset & (FrameBytes - 1));
  }
  void ensureFrame(size_t Index);

  CacheParams Params;
  uint64_t FrameBytes; // CacheSets * BlockBytes.
  uint64_t HotBytes;   // HotSets * BlockBytes.
  unsigned FrameShift; // log2(FrameBytes).
  OffsetLayout Layout;
  std::vector<AlignedBuffer> Frames;
};

} // namespace ccl

#endif // CCL_CORE_COLOREDARENA_H
