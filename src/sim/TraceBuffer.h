//===- sim/TraceBuffer.h - Compact record-once/replay-many traces -*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace engine's storage: a compact, append-only encoding of one
/// deterministic access stream (reads, writes, software prefetches, and
/// compute ticks), filled once by a native RecordAccess run and replayed
/// many times through fresh MemoryHierarchy instances — the structure of
/// the paper's own RSIM experiments, where one recorded address stream
/// was evaluated against many layouts.
///
/// The encoding is a sequence of blocks, each holding up to
/// TraceBlockCap records with their control bytes separated from their
/// payloads:
///
///   block: varint record count N (<= TraceBlockCap)
///          varint data-lane bytes
///          varint extra-lane bytes
///          N control bytes | data lane | extra lane
///   control byte: [7 reserved][6..5 width code][4..2 size code]
///                 [1..0 opcode]
///     opcode     0 = read, 1 = write, 2 = prefetch, 3 = tick
///     size code  1..7 -> {1, 2, 4, 8, 16, 32, 64} bytes (the common
///                field/node sizes); 0 -> the size is in the extra
///                lane. Prefetches and ticks leave it zero.
///   data lane:    per record, little-endian payload of 1/2/4/8 bytes
///                 (1 << width code): the zigzag address delta for
///                 read/write/prefetch, the cycle count for ticks.
///   extra lane:   varint explicit sizes (size code 0 reads/writes), in
///                 record order.
///
/// Reads, writes, and prefetches share one previous-address chain, so
/// pointer-chase locality keeps deltas short. Because the widths sit in
/// the control lane, a cursor decodes a whole block's payloads in one
/// branchless pass (TraceCursor::openBlock); seal() leaves TracePadBytes
/// of zero padding so that pass may load 8 bytes at the last payload.
///
/// A sealed buffer is immutable; TraceView (the borrowed recording) and
/// TraceCursor (a decoding position) are cheap value types, so many
/// SweepRunner workers can replay the same recording concurrently, each
/// with its own cursor and hierarchy. A bounded replay through one
/// cursor stops at any record count and resumes from there, so a mark
/// inside one recording needs no per-record index: fig5 reads its
/// cycle and miss counts at each search-count mark of a single replay,
/// and fig10 splits one recording into its warmup and its window.
/// Encode/decode round-trips exactly — including size-0 touches and
/// full-range addresses — locked down by tests/trace_test.cpp and
/// tests/trace_v2_test.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SIM_TRACEBUFFER_H
#define CCL_SIM_TRACEBUFFER_H

#include "support/Varint.h"

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

static_assert(std::endian::native == std::endian::little,
              "data lanes store payloads little-endian; the block decode "
              "loads them with memcpy");

namespace ccl::sim {

/// Records per block. Also the batch size of TraceCursor::nextBatch():
/// one openBlock() pass decodes one block.
inline constexpr size_t TraceBlockCap = 64;

/// Zero bytes seal() keeps past the encoded stream. The block decode
/// loads 8 bytes at every payload, so a 1-byte payload at the very end
/// reads 7 bytes beyond it.
inline constexpr size_t TracePadBytes = 8;

/// One decoded trace record. \p Arg holds the byte size for reads and
/// writes and the cycle count for ticks; prefetches carry only \p Addr.
struct TraceRecord {
  enum class Kind : uint8_t { Read, Write, Prefetch, Tick };
  uint64_t Addr = 0;
  uint64_t Arg = 0;
  Kind K = Kind::Read;
};

/// A borrowed, immutable view of a sealed TraceBuffer's NumRecords
/// records. Copyable and trivially shareable across threads; the owning
/// buffer must outlive it.
struct TraceView {
  const uint8_t *Data = nullptr;
  size_t NumRecords = 0;

  size_t records() const { return NumRecords; }
  bool empty() const { return NumRecords == 0; }
};

/// A decoding position inside a view. next() streams records in order;
/// nextBatch() hands out up to a block at a time (the replay loop's
/// consumption path); MemoryHierarchy::replay(cursor, n) consumes a
/// bounded number, so one recording can be replayed in phases (e.g.
/// fig10's warmup, then its measured window) with cycle snapshots taken
/// in between.
class TraceCursor {
public:
  TraceCursor() = default;
  explicit TraceCursor(TraceView View)
      : Pos(View.Data), RecordsLeft(View.NumRecords) {}

  size_t remaining() const { return RecordsLeft; }
  bool done() const { return RecordsLeft == 0; }

  /// Decodes the next record into \p Out; returns false when exhausted.
  bool next(TraceRecord &Out) {
    if (RecordsLeft == 0)
      return false;
    --RecordsLeft;
    if (BlockIdx == BlockLen)
      openBlock();
    finalizeRecord(BlockIdx++, Out);
    return true;
  }

  /// Decodes up to \p Max records into \p Out and returns how many were
  /// produced (0 only when exhausted). Returns at most the rest of the
  /// current block, so after the first call batches align with blocks;
  /// callers loop until satisfied.
  size_t nextBatch(TraceRecord *Out, size_t Max) {
    if (Max > RecordsLeft)
      Max = RecordsLeft;
    if (Max == 0)
      return 0;
    if (BlockIdx == BlockLen)
      openBlock();
    size_t Take = BlockLen - BlockIdx;
    if (Take > Max)
      Take = Max;
    for (size_t I = 0; I < Take; ++I)
      finalizeRecord(BlockIdx + uint32_t(I), Out[I]);
    BlockIdx += uint32_t(Take);
    RecordsLeft -= Take;
    return Take;
  }

private:
  /// Opens the block at Pos: parses the header, locates the lanes, and
  /// decodes every payload in one branchless pass — load 8 bytes, keep
  /// the low 1 << w of them, step by 1 << w. Loads past the last payload
  /// read the extra lane, the next block, or seal()'s tail padding.
  void openBlock() {
    const uint8_t *P = Pos;
    uint64_t N = varintDecode(P);
    uint64_t DataBytes = varintDecode(P);
    uint64_t ExtraBytes = varintDecode(P);
    assert(N != 0 && N <= TraceBlockCap && "corrupt block header");
    Ctrl = P;
    const uint8_t *Data = Ctrl + N;
    Extra = Data + DataBytes;
    Pos = Extra + ExtraBytes;
    BlockLen = uint32_t(N);
    BlockIdx = 0;
    for (uint32_t I = 0; I < BlockLen; ++I) {
      uint32_t Width = (Ctrl[I] >> 5) & 0x3;
      uint64_t Raw;
      std::memcpy(&Raw, Data, sizeof(Raw));
      Payloads[I] = Raw & WidthMask[Width];
      Data += size_t(1) << Width;
    }
    assert(Data == Extra && "block data lane length mismatch");
  }

  /// Turns decoded payload \p I of the open block into a TraceRecord,
  /// advancing the delta chain and the extra-lane cursor.
  void finalizeRecord(uint32_t I, TraceRecord &Out) {
    uint8_t C = Ctrl[I];
    auto Kind = TraceRecord::Kind(C & 0x3);
    Out.K = Kind;
    if (Kind == TraceRecord::Kind::Tick) {
      Out.Addr = 0;
      Out.Arg = Payloads[I];
      return;
    }
    PrevAddr += uint64_t(zigzagDecode(Payloads[I]));
    Out.Addr = PrevAddr;
    if (Kind == TraceRecord::Kind::Prefetch) {
      Out.Arg = 0;
      return;
    }
    uint32_t SizeCode = (C >> 2) & 0x7;
    Out.Arg = SizeCode != 0 ? uint64_t(1) << (SizeCode - 1)
                            : varintDecode(Extra);
  }

  /// Payload bits kept for each width code (1, 2, 4, 8 bytes).
  static constexpr uint64_t WidthMask[4] = {0xFF, 0xFFFF, 0xFFFFFFFF,
                                            ~uint64_t(0)};

  /// The next block's header.
  const uint8_t *Pos = nullptr;
  size_t RecordsLeft = 0;
  uint64_t PrevAddr = 0;
  // The open block.
  const uint8_t *Ctrl = nullptr;     ///< Control lane.
  const uint8_t *Extra = nullptr;    ///< Extra-lane read position.
  uint32_t BlockLen = 0;
  uint32_t BlockIdx = 0;
  /// Decoded raw payloads of the open block.
  uint64_t Payloads[TraceBlockCap];
};

/// Append-only recorded access stream. Fill through the record*() calls
/// (or a sim::RecordAccess policy), seal(), then hand out views.
class TraceBuffer {
public:
  TraceBuffer() = default;

  // The encoding chains address deltas; moving the storage is fine, but
  // accidental copies of multi-megabyte recordings are not.
  TraceBuffer(const TraceBuffer &) = delete;
  TraceBuffer &operator=(const TraceBuffer &) = delete;
  TraceBuffer(TraceBuffer &&) = default;
  TraceBuffer &operator=(TraceBuffer &&) = default;

  void recordRead(uint64_t Addr, uint64_t Size) {
    recordAccess(0, Addr, Size);
  }

  void recordWrite(uint64_t Addr, uint64_t Size) {
    recordAccess(1, Addr, Size);
  }

  void recordPrefetch(uint64_t Addr) {
    assert(!Sealed && "recording into a sealed trace");
    pendingPush(2, zigzagEncode(int64_t(Addr - PrevAddr)));
    PrevAddr = Addr;
    ++NumRecords;
  }

  void recordTick(uint64_t Cycles) {
    assert(!Sealed && "recording into a sealed trace");
    pendingPush(3, Cycles);
    ++NumRecords;
  }

  /// Number of records written so far — also the mark a bounded replay
  /// stops at for "everything recorded up to this point".
  size_t records() const { return NumRecords; }

  /// Encoded size, including the not-yet-flushed block and excluding
  /// seal()'s padding; compactness is what makes whole-benchmark
  /// recordings affordable (tests bound it well under a 16-byte raw
  /// record).
  size_t bytes() const { return Used + pendingEncodedBytes(); }

  /// Freezes the buffer (and trims its allocation). Required before
  /// views may be taken. Keeps TracePadBytes of zero padding past the
  /// encoded bytes for the block decode's 8-byte loads.
  void seal() {
    flushBlock();
    Sealed = true;
    Data.resize(Used + TracePadBytes);
    std::memset(Data.data() + Used, 0, TracePadBytes);
    Data.shrink_to_fit();
  }

  bool sealed() const { return Sealed; }

  /// View over the whole recording.
  TraceView view() const {
    assert(Sealed && "seal() the buffer before taking views");
    return {Data.data(), NumRecords};
  }

  void clear() {
    Data.clear();
    Used = 0;
    NumRecords = 0;
    PrevAddr = 0;
    Sealed = false;
    PendingCount = 0;
    PendingDataBytes = 0;
    PendingExtra.clear();
  }

private:
  void recordAccess(uint8_t Opcode, uint64_t Addr, uint64_t Size) {
    assert(!Sealed && "recording into a sealed trace");
    uint32_t SizeCode = sizeCodeFor(Size);
    if (SizeCode == 0)
      varintEncode(PendingExtra, Size);
    pendingPush(uint8_t(Opcode | (SizeCode << 2)),
                zigzagEncode(int64_t(Addr - PrevAddr)));
    PrevAddr = Addr;
    ++NumRecords;
  }

  /// Smallest of {1, 2, 4, 8} bytes holding \p Value, as a width code.
  static uint32_t widthCodeFor(uint64_t Value) {
    if (Value < (uint64_t(1) << 8))
      return 0;
    if (Value < (uint64_t(1) << 16))
      return 1;
    if (Value < (uint64_t(1) << 32))
      return 2;
    return 3;
  }

  /// Appends one record to the pending block, flushing when full.
  void pendingPush(uint8_t CtrlBits, uint64_t Payload) {
    uint32_t Width = widthCodeFor(Payload);
    PendingCtrl[PendingCount] = uint8_t(CtrlBits | (Width << 5));
    PendingPayload[PendingCount] = Payload;
    PendingDataBytes += 1u << Width;
    if (++PendingCount == TraceBlockCap)
      flushBlock();
  }

  /// Writes the pending block: header varints, control lane, packed
  /// little-endian payloads, extra lane.
  void flushBlock() {
    if (PendingCount == 0)
      return;
    uint8_t *P = grab(pendingEncodedBytes());
    P = varintEncode(P, PendingCount);
    P = varintEncode(P, PendingDataBytes);
    P = varintEncode(P, PendingExtra.size());
    std::memcpy(P, PendingCtrl, PendingCount);
    P += PendingCount;
    for (uint32_t I = 0; I < PendingCount; ++I) {
      uint64_t V = PendingPayload[I];
      uint32_t W = 1u << ((PendingCtrl[I] >> 5) & 0x3);
      // Byte-by-byte keeps the lane explicitly little-endian; the
      // compiler collapses the fixed-width cases to single stores.
      for (uint32_t B = 0; B < W; ++B)
        *P++ = uint8_t(V >> (8 * B));
    }
    if (!PendingExtra.empty()) { // data() is null when the lane is empty
      std::memcpy(P, PendingExtra.data(), PendingExtra.size());
      P += PendingExtra.size();
    }
    Used = size_t(P - Data.data());
    PendingCount = 0;
    PendingDataBytes = 0;
    PendingExtra.clear();
  }

  /// Exact encoded size of the pending block (0 when none).
  size_t pendingEncodedBytes() const {
    if (PendingCount == 0)
      return 0;
    return varintLen(PendingCount) + varintLen(PendingDataBytes) +
           varintLen(PendingExtra.size()) + PendingCount +
           PendingDataBytes + PendingExtra.size();
  }

  /// Returns a write pointer with at least \p Need bytes of headroom,
  /// growing the backing storage geometrically. flushBlock() writes
  /// through the pointer unchecked and then advances Used — this is
  /// what keeps recording from paying a bounds check per byte.
  uint8_t *grab(size_t Need) {
    if (Used + Need > Data.size()) {
      size_t Grown = Data.size() < 2048 ? 4096 : Data.size() * 2;
      Data.resize(Grown > Used + Need ? Grown : Used + Need);
    }
    return Data.data() + Used;
  }

  /// 1..7 for the power-of-two sizes 1..64, 0 for everything else
  /// (explicit varint).
  static uint32_t sizeCodeFor(uint64_t Size) {
    if (Size == 0 || Size > 64 || (Size & (Size - 1)) != 0)
      return 0;
    return uint32_t(std::countr_zero(Size)) + 1;
  }

  /// Backing storage; sized with headroom while recording, trimmed (plus
  /// tail padding) by seal().
  std::vector<uint8_t> Data;
  /// Encoded bytes written so far (Data.size() is capacity-like).
  size_t Used = 0;
  size_t NumRecords = 0;
  uint64_t PrevAddr = 0;
  bool Sealed = false;
  // Pending (unflushed) block.
  uint32_t PendingCount = 0;
  uint32_t PendingDataBytes = 0;
  uint8_t PendingCtrl[TraceBlockCap];
  uint64_t PendingPayload[TraceBlockCap];
  std::vector<uint8_t> PendingExtra;
};

} // namespace ccl::sim

#endif // CCL_SIM_TRACEBUFFER_H
