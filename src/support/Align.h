//===- support/Align.h - Alignment arithmetic helpers ----------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Power-of-two alignment arithmetic used throughout the heap, layout and
/// cache-simulator code, and allocateAligned, the one source of memory
/// whose address the repo picks. All helpers assert that the alignment is
/// a power of two.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SUPPORT_ALIGN_H
#define CCL_SUPPORT_ALIGN_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

namespace ccl {

/// Returns true if \p Value is a power of two (zero is not).
constexpr bool isPowerOf2(uint64_t Value) {
  return Value != 0 && (Value & (Value - 1)) == 0;
}

/// Rounds \p Value up to the next multiple of \p Align.
constexpr uint64_t alignUp(uint64_t Value, uint64_t Align) {
  assert(isPowerOf2(Align) && "alignment must be a power of two");
  return (Value + Align - 1) & ~(Align - 1);
}

/// Rounds \p Value down to the previous multiple of \p Align.
constexpr uint64_t alignDown(uint64_t Value, uint64_t Align) {
  assert(isPowerOf2(Align) && "alignment must be a power of two");
  return Value & ~(Align - 1);
}

/// Returns true if \p Value is a multiple of \p Align.
constexpr bool isAligned(uint64_t Value, uint64_t Align) {
  assert(isPowerOf2(Align) && "alignment must be a power of two");
  return (Value & (Align - 1)) == 0;
}

/// Base-2 logarithm of a power of two.
constexpr unsigned log2Exact(uint64_t Value) {
  assert(isPowerOf2(Value) && "log2Exact requires a power of two");
  unsigned Log = 0;
  while (Value > 1) {
    Value >>= 1;
    ++Log;
  }
  return Log;
}

/// Smallest power of two greater than or equal to \p Value.
constexpr uint64_t nextPowerOf2(uint64_t Value) {
  uint64_t Pow = 1;
  while (Pow < Value)
    Pow <<= 1;
  return Pow;
}

/// Reinterprets a pointer as an integer address.
inline uint64_t addrOf(const void *Ptr) {
  return reinterpret_cast<uint64_t>(Ptr);
}

/// Frees allocateAligned's memory.
struct FreeDeleter {
  void operator()(void *Ptr) const { std::free(Ptr); }
};
using AlignedBuffer = std::unique_ptr<char, FreeDeleter>;

/// \p Bytes, rounded up to a multiple of \p Align, at an address aligned
/// to \p Align. Never null: running out of memory aborts.
inline AlignedBuffer allocateAligned(uint64_t Align, uint64_t Bytes) {
  void *Memory = std::aligned_alloc(Align, alignUp(Bytes, Align));
  if (!Memory) {
    std::fprintf(stderr, "ccl: out of memory (%zu bytes)\n", size_t(Bytes));
    std::abort();
  }
  return AlignedBuffer(static_cast<char *>(Memory));
}

} // namespace ccl

#endif // CCL_SUPPORT_ALIGN_H
