//===- support/Varint.h - LEB128 + zigzag integer coding -------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unsigned LEB128 varint encoding plus zigzag signed-to-unsigned
/// mapping, used by sim::TraceBuffer to store recorded access streams as
/// address *deltas*: consecutive accesses exhibit strong spatial
/// locality, so most deltas fit in one or two bytes where a raw
/// address/size record costs sixteen.
///
/// Encoding appends to a byte vector; decoding advances a raw cursor.
/// Both are branch-light loops over 7-bit groups (high bit = continue).
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SUPPORT_VARINT_H
#define CCL_SUPPORT_VARINT_H

#include <cstdint>
#include <vector>

namespace ccl {

/// Appends \p Value to \p Out as an unsigned LEB128 varint (1-10 bytes).
inline void varintEncode(std::vector<uint8_t> &Out, uint64_t Value) {
  while (Value >= 0x80) {
    Out.push_back(uint8_t(Value) | 0x80);
    Value >>= 7;
  }
  Out.push_back(uint8_t(Value));
}

/// Writes \p Value to \p Out as an unsigned LEB128 varint and returns
/// the position one past the encoded bytes. The caller guarantees at
/// least 10 writable bytes (the longest encoding of a uint64_t) — the
/// bounds-check-free twin of the vector overload for hot recording
/// loops.
inline uint8_t *varintEncode(uint8_t *Out, uint64_t Value) {
  while (Value >= 0x80) {
    *Out++ = uint8_t(Value) | 0x80;
    Value >>= 7;
  }
  *Out++ = uint8_t(Value);
  return Out;
}

/// Encoded length of \p Value as an unsigned LEB128 varint (1-10
/// bytes), without writing it — used to size trace block headers
/// exactly before flushing them.
inline size_t varintLen(uint64_t Value) {
  size_t Len = 1;
  while (Value >= 0x80) {
    Value >>= 7;
    ++Len;
  }
  return Len;
}

/// Decodes an unsigned LEB128 varint at \p Pos, advancing it past the
/// encoded bytes. The caller guarantees a complete record is present
/// (TraceBuffer only hands out views over fully written records).
inline uint64_t varintDecode(const uint8_t *&Pos) {
  uint64_t Value = Pos[0] & 0x7F;
  if ((Pos[0] & 0x80) == 0) { // One-byte fast path: the common delta.
    ++Pos;
    return Value;
  }
  unsigned Shift = 7;
  ++Pos;
  for (;; ++Pos, Shift += 7) {
    Value |= uint64_t(*Pos & 0x7F) << Shift;
    if ((*Pos & 0x80) == 0)
      break;
  }
  ++Pos;
  return Value;
}

/// Maps a signed delta onto small unsigned codes (0, -1, 1, -2, ... ->
/// 0, 1, 2, 3, ...) so varintEncode stores near-zero deltas of either
/// sign in one byte.
inline uint64_t zigzagEncode(int64_t Value) {
  return (uint64_t(Value) << 1) ^ uint64_t(Value >> 63);
}

inline int64_t zigzagDecode(uint64_t Value) {
  return int64_t(Value >> 1) ^ -int64_t(Value & 1);
}

} // namespace ccl

#endif // CCL_SUPPORT_VARINT_H
