//===- core/ColoredArena.h - Cache-colored address allocation --*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's coloring technique (§2.2, Figure 2) by address
/// arithmetic: the virtual address space is carved into cache-capacity
/// "frames" aligned to the cache size, so the offset within a frame
/// determines the cache set. Bytes mapping to sets [0, p) are *hot*
/// slots; the remainder are *cold*. Hot allocations therefore can only
/// conflict with other hot data (and an `a`-way cache absorbs `a` frames
/// of hot data with no conflicts at all), and cold allocations can never
/// evict them.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_CORE_COLOREDARENA_H
#define CCL_CORE_COLOREDARENA_H

#include "core/CacheParams.h"
#include "support/Arena.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccl {

/// Bump allocator over colored frames.
///
/// Allocations never straddle the hot/cold boundary or a frame boundary;
/// the resulting gaps are address-space only — on demand-paged systems
/// untouched gap pages are never committed, which is why the paper keeps
/// gaps page-multiple (`hotBytesPerFrame()` reports whether the chosen
/// `p` satisfies that).
///
/// Not thread-safe: the bump cursors and the frame vector are
/// unsynchronized, and the allocation *sequence* is what makes a layout
/// deterministic. Each CcMorph owns its arena, so concurrent morphs
/// never share one. Once handed out, an allocation's bytes are never
/// touched by the arena again.
class ColoredArena {
public:
  explicit ColoredArena(const CacheParams &Params);

  /// Allocates in the hot region (sets [0, HotSets)).
  /// If \p NoCrossBytes is nonzero, the allocation is placed so it never
  /// straddles a NoCrossBytes boundary (advancing to the next boundary
  /// if needed) — used by ccmorph to pack small clusters into cache
  /// blocks without ever splitting a cluster across two blocks.
  ///
  /// Inline: ccmorph performs one colored allocation per cluster, which
  /// at a couple of nodes per block means one call every few nodes.
  void *allocateHot(size_t Bytes, size_t Align = 8,
                    uint64_t NoCrossBytes = 0) {
    assert(Params.HotSets > 0 && "no hot region configured");
    return bump(Hot, /*RegionBase=*/0, HotBytes, Bytes, Align, NoCrossBytes,
                HotUsed);
  }

  /// Allocates in the cold region (sets [HotSets, CacheSets)).
  void *allocateCold(size_t Bytes, size_t Align = 8,
                     uint64_t NoCrossBytes = 0) {
    assert(Params.HotSets < Params.CacheSets && "no cold region configured");
    return bump(Cold, /*RegionBase=*/HotBytes, FrameBytes - HotBytes, Bytes,
                Align, NoCrossBytes, ColdUsed);
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
  uint64_t hotBytesUsed() const { return HotUsed; }
  uint64_t coldBytesUsed() const { return ColdUsed; }

  /// Invokes \p Callback(FrameBase, FrameBytes, HotBytes) for every
  /// allocated frame: [FrameBase, FrameBase + HotBytes) are the frame's
  /// hot slots, the rest is cold. Used for telemetry region registration.
  template <typename Fn> void forEachFrame(Fn &&Callback) const {
    for (const char *Frame : Frames)
      Callback(Frame, FrameBytes, HotBytes);
  }

private:
  struct Cursor {
    size_t Frame = 0;
    uint64_t Offset = 0; // Offset within the frame's region.
  };

  char *frameAt(size_t Index) {
    if (Index >= Frames.size())
      ensureFrame(Index);
    return Frames[Index];
  }
  void ensureFrame(size_t Index);
  void *bump(Cursor &C, uint64_t RegionBase, uint64_t RegionSize,
             size_t Bytes, size_t Align, uint64_t NoCrossBytes,
             uint64_t &UsedCounter) {
    assert(Bytes <= RegionSize && "allocation exceeds colored region size");
    assert(isPowerOf2(Align) && Align <= 4096 &&
           "unsupported colored-allocation alignment");
    for (;;) {
      char *Frame = frameAt(C.Frame);
      uint64_t Absolute = addrOf(Frame) + RegionBase + C.Offset;
      uint64_t Aligned = alignUp(Absolute, Align);
      // Never straddle a NoCrossBytes boundary (unless the object itself
      // is larger than one such unit, in which case start on a boundary).
      if (NoCrossBytes != 0 &&
          alignDown(Aligned, NoCrossBytes) !=
              alignDown(Aligned + Bytes - 1, NoCrossBytes))
        Aligned = alignUp(Aligned, NoCrossBytes);
      uint64_t NewOffset = (Aligned - addrOf(Frame) - RegionBase) + Bytes;
      if (NewOffset <= RegionSize) {
        C.Offset = NewOffset;
        UsedCounter += Bytes;
        return reinterpret_cast<void *>(Aligned);
      }
      // Region of this frame exhausted: advance to the next frame. The
      // skipped tail is an address-space gap, never touched.
      ++C.Frame;
      C.Offset = 0;
    }
  }

  CacheParams Params;
  uint64_t FrameBytes; // CacheSets * BlockBytes.
  uint64_t HotBytes;   // HotSets * BlockBytes.
  Arena Backing;
  std::vector<char *> Frames;
  Cursor Hot;
  Cursor Cold;
  uint64_t HotUsed = 0;
  uint64_t ColdUsed = 0;
};

} // namespace ccl

#endif // CCL_CORE_COLOREDARENA_H
