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
/// deterministic. Each CcMorph owns its arenas, so concurrent morphs
/// never share one. Once handed out, an allocation's bytes are never
/// touched by the arena again; restart() ends every allocation at once
/// and hands the frames to a new layout.
class ColoredArena {
public:
  explicit ColoredArena(const CacheParams &Params);

  /// Starts a new layout for \p Params over this arena's frames, whose
  /// allocations all die: the layout's frame i is the arena's frame i,
  /// and frames past the ones held are drawn fresh. ccmorph's double
  /// buffer lays each pass into the arena the pass before it retired,
  /// so steady-state passes draw no memory. The frame size must not
  /// change (only the hot-set count may).
  void restart(const CacheParams &Params);

  /// Frees the held frames the current layout has not reached (a
  /// layout smaller than the one before the last restart()).
  void releaseUnplaced() { Frames.resize(Placed); }

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

  /// Frames the current layout has reached.
  uint64_t framesAllocated() const { return Placed; }

  /// Invokes \p Callback(FrameBase, FrameBytes, HotBytes) for every
  /// frame the layout has reached, in layout order: [FrameBase,
  /// FrameBase + HotBytes) are the frame's hot slots, the rest is cold.
  /// Used for telemetry region registration.
  template <typename Fn> void forEachFrame(Fn &&Callback) const {
    for (size_t Frame = 0; Frame < Placed; ++Frame)
      Callback(Frames[Frame].get(), FrameBytes, HotBytes);
  }

private:
  /// The address of layout offset \p Offset. Frames are a power of two
  /// bytes, so the lookup shifts and masks (no division per cluster).
  void *at(uint64_t Offset) {
    uint64_t Frame = Offset >> FrameShift;
    if (Frame >= Placed)
      ensureFrame(Frame);
    return Frames[Frame].get() + (Offset & (FrameBytes - 1));
  }
  void ensureFrame(size_t Index);

  CacheParams Params;
  uint64_t FrameBytes; // CacheSets * BlockBytes.
  uint64_t HotBytes;   // HotSets * BlockBytes.
  unsigned FrameShift; // log2(FrameBytes).
  OffsetLayout Layout;
  /// Held frames; the first Placed belong to the current layout, the
  /// rest wait for it (restart() keeps every frame).
  std::vector<AlignedBuffer> Frames;
  size_t Placed = 0;
};

} // namespace ccl

#endif // CCL_CORE_COLOREDARENA_H
