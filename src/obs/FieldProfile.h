//===- obs/FieldProfile.h - Field-level miss attribution -------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attributes simulated accesses to *field offsets* within reflected
/// structure types (support/Reflect.h) — the affinity profile the
/// paper's hot/cold splitting and field reordering decisions consume,
/// and the optional profile input of ccl-lint.
///
///  * FieldProfileSink — a SimObserver that maps each AccessEvent's
///    virtual address to a registered object, computes the offset
///    within the owning type, and charges per-field counters
///    (reads/writes, L1/L2/TLB misses, cycles, bytes). Objects are
///    bound either one at a time (addObject — works for heap-placed
///    nodes with allocator headers between them) or as stride regions
///    (addStrideRegion — arena-backed contiguous node arrays).
///  * writeFieldsJsonl / readFieldsFile — the `ccl-fields-v1` JSONL
///    format, read and written through obs/Json.h: its meta line starts
///    with the shared envelope (schema, binary, git).
///
/// ccl-fields-v1, one object per line:
///   {"kind":"meta","schema":"ccl-fields-v1","binary":"...","git":"...",
///    "attributed":N,"unattributed":N}
///   {"kind":"type","name":"BTreeNode","module":"trees","size":64,
///    "align":8,"objects":N,"accesses":N,"pad_bytes":N}
///   {"kind":"f","type":"BTreeNode","field":"Keys","off":8,"size":16,
///    "align":4,"ftype":"u32[4]","n":4,"reads":..,"writes":..,
///    "l1m":..,"l2m":..,"tlbm":..,"cyc":..,"bytes":..}
///
/// Readers follow obs/Json.h's reader contract and also require the
/// meta line first; "f" lines naming no earlier type are skipped.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_FIELDPROFILE_H
#define CCL_OBS_FIELDPROFILE_H

#include "obs/Json.h"
#include "obs/Observer.h"
#include "support/Reflect.h"

#include <cstdio>
#include <string>
#include <vector>

namespace ccl::obs {

/// Access counters for one field of one type.
struct FieldCounters {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
  uint64_t TlbMisses = 0;
  uint64_t Cycles = 0;
  /// Bytes of this field overlapped by attributed accesses (an access
  /// spanning several fields contributes its overlap to each).
  uint64_t BytesAccessed = 0;

  uint64_t refs() const { return Reads + Writes; }

  FieldCounters &operator+=(const FieldCounters &O) {
    Reads += O.Reads;
    Writes += O.Writes;
    L1Misses += O.L1Misses;
    L2Misses += O.L2Misses;
    TlbMisses += O.TlbMisses;
    Cycles += O.Cycles;
    BytesAccessed += O.BytesAccessed;
    return *this;
  }
};

/// Per-type accumulation: one FieldCounters per reflected field, in
/// the TypeDesc's field order.
struct TypeFieldProfile {
  uint32_t TypeId = 0;
  uint64_t Objects = 0;
  /// Events attributed to this type.
  uint64_t Accesses = 0;
  /// Bytes touched that fell into padding holes (no owning field).
  uint64_t PaddingBytesTouched = 0;
  std::vector<FieldCounters> Fields;
};

/// SimObserver computing field-affinity profiles for reflected types.
///
/// Purely passive: consumes events, never touches the hierarchy, so
/// attaching it (directly or via MultiObserver) keeps SimStats
/// bit-identical per the observer contract.
class FieldProfileSink : public SimObserver {
public:
  explicit FieldProfileSink(
      const reflect::TypeRegistry &Registry = reflect::TypeRegistry::global());

  /// Binds one object at \p Base to reflected type \p TypeId. Use for
  /// heap-placed nodes (allocator headers make strides non-uniform).
  void addObject(const void *Base, uint32_t TypeId) {
    addObject(reinterpret_cast<uint64_t>(Base), TypeId);
  }
  void addObject(uint64_t Base, uint32_t TypeId);

  /// Binds every sizeof(type)-strided slot of [Base, Base+Bytes) to
  /// \p TypeId. Use for arena-backed contiguous node storage.
  void addStrideRegion(uint64_t Base, uint64_t Bytes, uint32_t TypeId);
  void addStrideRegion(const void *Base, size_t Bytes, uint32_t TypeId) {
    addStrideRegion(reinterpret_cast<uint64_t>(Base), uint64_t(Bytes),
                    TypeId);
  }

  /// Sorts bindings for lookup. Called lazily by the first event after
  /// a registration; explicit calls are allowed (idempotent).
  void seal();

  void onAccess(const AccessEvent &Event) override;

  /// Profile for \p TypeId; null if the type never got a binding.
  const TypeFieldProfile *profileFor(uint32_t TypeId) const;

  /// All profiles with at least one attributed access, stable order.
  std::vector<const TypeFieldProfile *> profiles() const;

  const reflect::TypeRegistry &registry() const { return Registry; }

  uint64_t attributedEvents() const { return Attributed; }
  uint64_t unattributedEvents() const { return Unattributed; }

private:
  struct Binding {
    uint64_t Base;
    uint64_t End; // exclusive
    uint32_t Stride;
    uint32_t TypeSize;
    uint32_t ProfileIndex;
  };

  int findBinding(uint64_t Addr) const;
  uint32_t profileIndexFor(uint32_t TypeId);

  const reflect::TypeRegistry &Registry;
  std::vector<Binding> Bindings;
  std::vector<TypeFieldProfile> Profiles;
  bool Sealed = false;
  mutable size_t LastBinding = 0;
  uint64_t Attributed = 0;
  uint64_t Unattributed = 0;
};

//===----------------------------------------------------------------------===//
// ccl-fields-v1 export / re-read
//===----------------------------------------------------------------------===//

/// One parsed "f" line: the field's layout facts plus its counters.
struct FieldsFieldDoc {
  std::string Name;
  uint32_t Offset = 0;
  uint32_t Size = 0;
  uint32_t Align = 1;
  std::string TypeName;
  uint32_t ElemCount = 1;
  FieldCounters Counters;
};

/// One parsed "type" line plus its "f" lines.
struct FieldsTypeDoc {
  std::string Name;
  std::string Module;
  uint32_t Size = 0;
  uint32_t Align = 1;
  uint64_t Objects = 0;
  uint64_t Accesses = 0;
  uint64_t PaddingBytesTouched = 0;
  std::vector<FieldsFieldDoc> Fields;
};

/// A parsed ccl-fields-v1 dump.
struct FieldsDoc {
  std::string Schema;
  std::string Binary;
  std::string Git;
  uint64_t Attributed = 0;
  uint64_t Unattributed = 0;
  std::vector<FieldsTypeDoc> Types;

  const FieldsTypeDoc *findType(const std::string &Name) const;
};

/// Writes the sink's profiles (ccl-fields-v1). Types without attributed
/// accesses are skipped unless \p IncludeIdle.
void writeFieldsJsonl(const FieldProfileSink &Sink, std::FILE *Out,
                      bool IncludeIdle = false);

/// Maps one dump line into \p Doc: true for a record; false for a
/// skipped line (unknown kind, orphan "f" line) or after Line.fail().
bool parseFieldsLine(JsonObject &Line, FieldsDoc &Doc);

/// Reads a whole dump ("-" = stdin); false with "<path>: line N:
/// <reason>" in \p Error if it is not a well-formed ccl-fields-v1 dump.
bool readFieldsFile(const std::string &Path, FieldsDoc &Doc,
                    std::string &Error);

} // namespace ccl::obs

#endif // CCL_OBS_FIELDPROFILE_H
