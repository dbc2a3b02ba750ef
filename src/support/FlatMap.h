//===- support/FlatMap.h - Open-addressing u64->u64 hash map ---*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal open-addressing hash map from uint64_t keys to uint64_t
/// values, built for the memory-hierarchy simulator's hot path (the
/// in-flight prefetch map and the address-translation unit map). Compared
/// to std::unordered_map it does one cache-line probe in the common case:
/// power-of-two capacity, multiplicative hashing, linear probing, and
/// backward-shift deletion (no tombstones, so probe sequences never
/// degrade).
///
/// The key value ~0ULL is reserved as the empty-slot marker. Both
/// simulator maps key off block/unit indices derived from byte addresses
/// divided by at least 2^4, so ~0ULL can never occur as a real key; an
/// assert enforces this.
///
/// Iteration (forEach) visits slots in table order, which is a
/// deterministic function of the insert/erase history — the simulator
/// relies on replay determinism, not on any particular order.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SUPPORT_FLATMAP_H
#define CCL_SUPPORT_FLATMAP_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ccl {

/// Open-addressing uint64_t -> uint64_t map with linear probing.
class FlatMap64 {
public:
  static constexpr uint64_t EmptyKey = ~0ULL;

  FlatMap64() = default;

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Pre-sizes the table so \p Expected insertions never rehash.
  void reserve(size_t Expected) {
    size_t NeededSlots = 16;
    while (Expected * 8 > NeededSlots * 7)
      NeededSlots *= 2;
    if (NeededSlots > Slots.size())
      rehash(NeededSlots);
  }

  /// Returns a pointer to the value for \p Key, or nullptr if absent.
  /// The pointer is invalidated by any mutating operation.
  uint64_t *find(uint64_t Key) {
    if (Count == 0)
      return nullptr;
    for (size_t I = slotOf(Key);; I = next(I)) {
      if (Slots[I].Key == Key)
        return &Slots[I].Value;
      if (Slots[I].Key == EmptyKey)
        return nullptr;
    }
  }

  const uint64_t *find(uint64_t Key) const {
    return const_cast<FlatMap64 *>(this)->find(Key);
  }

  bool contains(uint64_t Key) const { return find(Key) != nullptr; }

  /// Inserts \p Key -> \p Value if absent; returns true if inserted
  /// (false if the key was already present, leaving its value unchanged).
  bool tryInsert(uint64_t Key, uint64_t Value) {
    assert(Key != EmptyKey && "key value reserved for empty slots");
    if ((Count + 1) * 8 > Slots.size() * 7)
      grow();
    for (size_t I = slotOf(Key);; I = next(I)) {
      if (Slots[I].Key == Key)
        return false;
      if (Slots[I].Key == EmptyKey) {
        Slots[I] = {Key, Value};
        ++Count;
        return true;
      }
    }
  }

  /// Returns a reference to the value for \p Key, inserting \p Default
  /// first if the key is absent (unordered_map::operator[] semantics).
  /// The reference is invalidated by any mutating operation.
  uint64_t &findOrInsert(uint64_t Key, uint64_t Default = 0) {
    assert(Key != EmptyKey && "key value reserved for empty slots");
    if ((Count + 1) * 8 > Slots.size() * 7)
      grow();
    for (size_t I = slotOf(Key);; I = next(I)) {
      if (Slots[I].Key == Key)
        return Slots[I].Value;
      if (Slots[I].Key == EmptyKey) {
        Slots[I] = {Key, Default};
        ++Count;
        return Slots[I].Value;
      }
    }
  }

  /// Removes \p Key if present; returns true if it was removed.
  /// Backward-shift deletion keeps probe chains tombstone-free.
  bool erase(uint64_t Key) {
    if (Count == 0)
      return false;
    size_t I = slotOf(Key);
    for (;; I = next(I)) {
      if (Slots[I].Key == EmptyKey)
        return false;
      if (Slots[I].Key == Key)
        break;
    }
    size_t Hole = I;
    for (size_t J = next(Hole);; J = next(J)) {
      if (Slots[J].Key == EmptyKey)
        break;
      // Move J into the hole if its home slot does not lie in the
      // (cyclic) range (Hole, J] — i.e. the element is reachable from
      // Hole's position but not from any position after it.
      size_t Home = slotOf(Slots[J].Key);
      bool Between = Hole <= J ? (Hole < Home && Home <= J)
                               : (Hole < Home || Home <= J);
      if (!Between) {
        Slots[Hole] = Slots[J];
        Hole = J;
      }
    }
    Slots[Hole].Key = EmptyKey;
    --Count;
    return true;
  }

  void clear() {
    for (Slot &S : Slots)
      S.Key = EmptyKey;
    Count = 0;
  }

  /// Visits every (key, value) pair in table order.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (const Slot &S : Slots)
      if (S.Key != EmptyKey)
        Visit(S.Key, S.Value);
  }

private:
  struct Slot {
    uint64_t Key = EmptyKey;
    uint64_t Value = 0;
  };

  size_t slotOf(uint64_t Key) const {
    // Fibonacci (multiplicative) hashing spreads the low-entropy block
    // indices the simulator uses as keys.
    return size_t((Key * 0x9E3779B97F4A7C15ULL) >> Shift) & (Slots.size() - 1);
  }

  size_t next(size_t I) const { return (I + 1) & (Slots.size() - 1); }

  void grow() { rehash(Slots.empty() ? 16 : Slots.size() * 2); }

  void rehash(size_t NewCapacity) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCapacity, Slot());
    Shift = 64 - log2OfPow2(NewCapacity);
    size_t Kept = Count;
    Count = 0;
    for (const Slot &S : Old)
      if (S.Key != EmptyKey)
        tryInsert(S.Key, S.Value);
    assert(Count == Kept && "rehash lost entries");
    (void)Kept;
  }

  static unsigned log2OfPow2(size_t Value) {
    unsigned Log = 0;
    while (Value > 1) {
      Value >>= 1;
      ++Log;
    }
    return Log;
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
  unsigned Shift = 64;
};

/// Open-addressing map from object addresses to 64-bit counters: the
/// hot-path replacement for the profile tables that used to be
/// std::unordered_map<const T *, uint64_t>. Pointer identity is the key
/// (a valid object address can never be ~0ULL, the empty marker), so one
/// map type serves every node type. operator[] mirrors unordered_map:
/// absent keys are inserted with count zero.
class PtrCountMap {
public:
  size_t size() const { return Map.size(); }
  bool empty() const { return Map.empty(); }
  void clear() { Map.clear(); }
  void reserve(size_t Expected) { Map.reserve(Expected); }

  /// Counter for \p Ptr, inserted as zero if absent. The reference is
  /// invalidated by any mutating operation.
  uint64_t &operator[](const void *Ptr) {
    return Map.findOrInsert(reinterpret_cast<uint64_t>(Ptr));
  }

  /// Counter for \p Ptr, or nullptr when the pointer was never counted.
  const uint64_t *find(const void *Ptr) const {
    return Map.find(reinterpret_cast<uint64_t>(Ptr));
  }

  bool contains(const void *Ptr) const { return find(Ptr) != nullptr; }

  /// Visits every (address, count) pair in table order.
  template <typename Fn> void forEach(Fn &&Visit) const {
    Map.forEach(std::forward<Fn>(Visit));
  }

private:
  FlatMap64 Map;
};

} // namespace ccl

#endif // CCL_SUPPORT_FLATMAP_H
