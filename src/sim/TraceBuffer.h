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
/// the control lane, a payload decodes without a branch on its width:
/// load 8 bytes, keep the low 1 << w of them, step by 1 << w. seal()
/// leaves TracePadBytes of zero padding so the load at the last payload
/// stays inside the buffer.
///
/// TraceCursor::consume() decodes one record at a time and hands it
/// straight to its visitor, so a replay probes each record as soon as
/// it is decoded: there is no decoded frame in between, and the decode
/// of the next record can overlap the stalls of the current probe.
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
              "data lanes hold payloads little-endian; the encoder stores "
              "and the decoder loads them with 8-byte memcpy");

namespace ccl::sim {

/// Records per block.
inline constexpr size_t TraceBlockCap = 64;

/// Zero bytes seal() keeps past the encoded stream. The decode loads 8
/// bytes at every payload, so a 1-byte payload at the very end reads 7
/// bytes beyond it.
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

/// A decoding position inside a view. consume() hands out a bounded
/// number of records to a visitor (the replay loop's consumption path);
/// next() is a one-record consume(). MemoryHierarchy::replay(cursor, n)
/// consumes a bounded number, so one recording can be replayed in
/// phases (e.g. fig10's warmup, then its measured window) with cycle
/// snapshots taken in between.
class TraceCursor {
public:
  TraceCursor() = default;
  explicit TraceCursor(TraceView View)
      : Pos(View.Data), RecordsLeft(View.NumRecords) {}

  size_t remaining() const { return RecordsLeft; }
  bool done() const { return RecordsLeft == 0; }

  /// Decodes the next record into \p Out; returns false when exhausted.
  bool next(TraceRecord &Out) {
    return consume(1, [&Out](TraceRecord::Kind K, uint64_t Addr,
                             uint64_t Arg) { Out = {Addr, Arg, K}; }) != 0;
  }

  /// Decodes up to \p Max records in order, calling
  /// \p Visit(Kind, Addr, Arg) on each as soon as it is decoded (Arg as
  /// in TraceRecord; Addr is 0 for ticks). Returns how many were
  /// visited: \p Max, or the rest of the view if fewer remain. Block
  /// boundaries are invisible to the caller, and a bounded call may
  /// stop mid-block; the next call resumes there.
  template <typename VisitFn> size_t consume(size_t Max, VisitFn &&Visit) {
    if (Max > RecordsLeft)
      Max = RecordsLeft;
    RecordsLeft -= Max;
    for (size_t Left = Max; Left != 0;) {
      if (BlockLeft == 0)
        openBlock();
      uint32_t Take = Left < BlockLeft ? uint32_t(Left) : BlockLeft;
      Left -= Take;
      BlockLeft -= Take;
      // Locals, not members: the visitor's stores (the hierarchy's
      // counters) may alias the cursor's fields as far as the compiler
      // knows, which would force a reload per record.
      const uint8_t *C = Ctrl, *D = Data, *E = Extra;
      uint64_t Prev = PrevAddr;
      for (const uint8_t *End = C + Take; C != End; ++C) {
        uint32_t Width = (*C >> 5) & 0x3;
        uint64_t Raw;
        std::memcpy(&Raw, D, sizeof(Raw));
        Raw &= WidthMask[Width];
        D += size_t(1) << Width;
        auto Kind = TraceRecord::Kind(*C & 0x3);
        if (Kind == TraceRecord::Kind::Tick) {
          Visit(Kind, uint64_t(0), Raw);
          continue;
        }
        Prev += uint64_t(zigzagDecode(Raw));
        uint64_t Arg = 0;
        if (Kind != TraceRecord::Kind::Prefetch) {
          uint32_t SizeCode = (*C >> 2) & 0x7;
          Arg = SizeCode != 0 ? uint64_t(1) << (SizeCode - 1)
                              : varintDecode(E);
        }
        Visit(Kind, Prev, Arg);
      }
      Ctrl = C;
      Data = D;
      Extra = E;
      PrevAddr = Prev;
      assert((BlockLeft != 0 || E == Pos) && "block lane length mismatch");
    }
    return Max;
  }

private:
  /// Opens the block at Pos: parses the header and locates its lanes.
  void openBlock() {
    const uint8_t *P = Pos;
    uint64_t N = varintDecode(P);
    uint64_t DataBytes = varintDecode(P);
    uint64_t ExtraBytes = varintDecode(P);
    assert(N != 0 && N <= TraceBlockCap && "corrupt block header");
    Ctrl = P;
    Data = Ctrl + N;
    Extra = Data + DataBytes;
    Pos = Extra + ExtraBytes;
    BlockLeft = uint32_t(N);
  }

  /// Payload bits kept for each width code (1, 2, 4, 8 bytes).
  static constexpr uint64_t WidthMask[4] = {0xFF, 0xFFFF, 0xFFFFFFFF,
                                            ~uint64_t(0)};

  /// The next block's header.
  const uint8_t *Pos = nullptr;
  size_t RecordsLeft = 0;
  uint64_t PrevAddr = 0;
  // Read positions in the open block's lanes.
  const uint8_t *Ctrl = nullptr;
  const uint8_t *Data = nullptr;
  const uint8_t *Extra = nullptr;
  /// Records of the open block not yet decoded.
  uint32_t BlockLeft = 0;
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
  /// encoded bytes for the decode's 8-byte loads.
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
    // Each payload is stored as one 8-byte word and the write position
    // then steps by its width; the next payload, the extra lane, the
    // next block or seal()'s padding overwrites the excess, so the block
    // reserves 8 spare bytes.
    uint8_t *P = grab(pendingEncodedBytes() + sizeof(uint64_t));
    P = varintEncode(P, PendingCount);
    P = varintEncode(P, PendingDataBytes);
    P = varintEncode(P, PendingExtra.size());
    std::memcpy(P, PendingCtrl, PendingCount);
    P += PendingCount;
    for (uint32_t I = 0; I < PendingCount; ++I) {
      std::memcpy(P, &PendingPayload[I], sizeof(uint64_t));
      P += size_t(1) << ((PendingCtrl[I] >> 5) & 0x3);
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
