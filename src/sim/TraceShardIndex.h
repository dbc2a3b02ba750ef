//===- sim/TraceShardIndex.h - Set-sharded trace splitting -----*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-time indexing pass behind MemoryHierarchy::replayParallel: it
/// splits a sealed TraceBuffer into per-shard sub-streams so workers can
/// replay disjoint slices of cache-set state concurrently.
///
/// Shard key. With s1 = log2(L1 block), n1 = log2(L1 sets), s2 = log2(L2
/// block), n2 = log2(L2 sets), the L1 set index is address bits
/// [s1, s1+n1) and the L2 set index is bits [s2, s2+n2). When the L1
/// frame fits inside the L2 frame (s1+n1 <= s2+n2) and the L2 block is
/// smaller than the L1 frame (s2 < s1+n1), the bit range [s2, s1+n1) is
/// a suffix of the L1 set index and a prefix of the L2 set index at the
/// same time — one key partitions both levels: every L1 block and every
/// L2 block falls in exactly one shard, so accesses in different shards
/// never touch the same set at either level. Both Table 1 presets nest
/// this way (E5000: bits [6,14), 256 shards; RSIM: bits [7,14), 128
/// shards). ShardKeySpec::fromConfig computes the window and reports
/// non-nested geometries, which replay serially instead.
///
/// What the index stores. One serial decode of the recording
///  * expands each read/write into its per-L1-block accesses (the
///    granularity MemoryHierarchy::accessBlock simulates),
///  * performs the canonical first-touch address translation in recorded
///    order — exactly the unit numbering a serial replay would create —
///    and keeps the resulting unit map plus the first-touch unit list,
///  * appends each translated block access to its shard's sub-stream
///    (mapped addresses, so replay needs no translation and the tags a
///    worker installs match a serial run bit for bit), and
///  * captures resume state (byte offset, delta-chain value, record
///    count) for every requested mark, so a recording can be replayed in
///    phases (fig10's warmup, then its window) through the same index.
///
/// Traces containing software-prefetch records are indexed for cut
/// bookkeeping only: prefetch timing depends on the global cycle, which
/// does not partition by set, so such traces replay serially (the same
/// is true of the hardware next-line prefetcher, which fromConfig
/// rejects). The page-granular TLB does not partition by set either;
/// replayParallel re-walks the original stream against the index's unit
/// map as one serial pass for it.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SIM_TRACESHARDINDEX_H
#define CCL_SIM_TRACESHARDINDEX_H

#include "sim/CacheConfig.h"
#include "sim/TraceBuffer.h"
#include "support/FlatMap.h"

#include <cstdint>
#include <vector>

namespace ccl::sim {

/// The address-bit window that shards a hierarchy's set state, or the
/// reason no such window exists.
struct ShardKeySpec {
  /// Low bit of the key window (log2 of the L2 block size).
  uint32_t KeyShift = 0;
  /// Width of the key window; 0 when the geometry is not shardable.
  uint32_t KeyBits = 0;
  /// True iff the L1 set-index bits nest inside the L2 set-index bits.
  bool Nested = false;
  /// Human-readable reason when !shardable(), otherwise "".
  const char *Reason = "";

  /// Shards are capped so degenerate geometries (a huge L1 over a tiny
  /// L2 block) cannot explode the sub-stream count; dropping high key
  /// bits keeps the window inside both levels' set-index bits, so the
  /// partition stays valid, just coarser.
  static constexpr uint32_t MaxKeyBits = 10;

  bool shardable() const { return Nested && KeyBits > 0; }
  uint32_t numShards() const { return shardable() ? 1u << KeyBits : 1; }
  uint32_t shardOf(uint64_t Addr) const {
    return uint32_t(Addr >> KeyShift) & ((1u << KeyBits) - 1);
  }

  static ShardKeySpec fromConfig(const HierarchyConfig &Config);
};

/// Immutable shard index over one sealed recording. Build once, replay
/// many times (concurrently: all accessors are const).
class TraceShardIndex {
public:
  /// Decode position for resuming a stream at a cut. Pos carries the
  /// resume state (the containing block plus an in-block offset, so
  /// cuts land anywhere, not just on block boundaries); Records is the
  /// stream-local record count at the cut.
  struct StreamPos {
    TraceResume Pos;
    size_t Records = 0;
  };

  /// \param View     the sealed recording (must outlive the index).
  /// \param Config   hierarchy the replays will run against; the key
  ///                 spec, block expansion, and translation geometry all
  ///                 derive from it.
  /// \param Marks    interior cut points as original-record counts,
  ///                 ascending (0 and View.records() are implied and
  ///                 deduplicated); replayParallel replays [cut, cut).
  /// \param WorkersHint expected worker count; <= 1 skips building the
  ///                 sub-streams entirely (the index then only carries
  ///                 cut bookkeeping for serial replay).
  TraceShardIndex(TraceView View, const HierarchyConfig &Config,
                  std::vector<size_t> Marks = {}, unsigned WorkersHint = 2);

  const ShardKeySpec &spec() const { return Spec; }

  /// True when per-shard sub-streams were built; false means
  /// replayParallel will fall back to a serial walk (serialReason()).
  bool sharded() const { return Sharded; }
  const char *serialReason() const { return SerialReason; }

  uint32_t numShards() const { return Sharded ? Spec.numShards() : 1; }

  /// Number of cut points (>= 2: start and end are always cuts).
  size_t numCuts() const { return CutRecords.size(); }

  /// Original-record count at cut \p Cut.
  size_t recordsAt(size_t Cut) const { return CutRecords[Cut]; }

  /// Cut index whose original-record count equals \p Records; asserts
  /// that such a cut exists (it does for every requested mark).
  size_t cutForRecords(size_t Records) const;

  /// Per-L1-block accesses between two cuts, summed over all shards
  /// (equals the serial replay's Reads + Writes for that span).
  uint64_t blockAccessesBetween(size_t CutA, size_t CutB) const {
    return CutBlockAccesses[CutB] - CutBlockAccesses[CutA];
  }

  /// Load-imbalance telemetry: per-shard block-access extremes in a span
  /// (the whole span counts as one shard when !sharded()).
  uint64_t maxShardAccessesBetween(size_t CutA, size_t CutB) const;
  uint64_t minShardAccessesBetween(size_t CutA, size_t CutB) const;

  /// Cursor over the original recording positioned at \p Cut (serial
  /// fallback and the TLB pass both start here).
  TraceCursor originalCursorAt(size_t Cut) const {
    const StreamPos &Pos = OriginalCuts[Cut];
    return TraceCursor(View, Pos.Pos, CutRecords.back() - Pos.Records);
  }

  /// Cursor over shard \p Shard's sub-stream positioned at \p Cut.
  TraceCursor shardCursorAt(uint32_t Shard, size_t Cut) const {
    const StreamPos &Pos = shardCut(Shard, Cut);
    const StreamPos &End = shardCut(Shard, numCuts() - 1);
    return TraceCursor(ShardStreams[Shard].view(), Pos.Pos,
                       End.Records - Pos.Records);
  }

  /// Block accesses in shard \p Shard between two cuts.
  uint64_t shardAccessesBetween(uint32_t Shard, size_t CutA,
                                size_t CutB) const {
    return shardCut(Shard, CutB).Records - shardCut(Shard, CutA).Records;
  }

  /// First-touch units discovered up to cut \p Cut (units are numbered
  /// 1.. in discovery order, exactly as a serial replay assigns them).
  uint64_t unitsAt(size_t Cut) const { return CutUnits[Cut]; }

  /// The \p I-th first-touch virtual unit (0-based discovery order).
  uint64_t unitAt(uint64_t I) const { return UnitsInOrder[I]; }

  /// Read-only canonical unit map (virtual unit -> mapped unit) covering
  /// the whole recording; the TLB pass translates through it.
  const FlatMap64 &unitMap() const { return Units; }

private:
  const StreamPos &shardCut(uint32_t Shard, size_t Cut) const {
    return ShardCuts[Cut * Spec.numShards() + Shard];
  }

  TraceView View;
  ShardKeySpec Spec;
  bool Sharded = false;
  const char *SerialReason = "";
  uint32_t UnitShift = 0;
  /// Original-record counts at each cut: {0, marks..., records()}.
  std::vector<size_t> CutRecords;
  /// Cumulative per-L1-block accesses before each cut (computed even
  /// when the trace is not sharded — it is pure decode arithmetic).
  std::vector<uint64_t> CutBlockAccesses;
  /// Original-stream resume state per cut.
  std::vector<StreamPos> OriginalCuts;
  /// First-touch units discovered before each cut.
  std::vector<uint64_t> CutUnits;
  /// Virtual unit numbers in first-touch order.
  std::vector<uint64_t> UnitsInOrder;
  /// Virtual unit -> mapped unit for the whole recording.
  FlatMap64 Units;
  /// Per-shard sub-streams of translated block accesses (empty unless
  /// sharded()).
  std::vector<TraceBuffer> ShardStreams;
  /// Per-cut, per-shard resume state, row-major by cut.
  std::vector<StreamPos> ShardCuts;
};

} // namespace ccl::sim

#endif // CCL_SIM_TRACESHARDINDEX_H
