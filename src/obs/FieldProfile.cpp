//===- obs/FieldProfile.cpp - Field-level miss attribution ----------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/FieldProfile.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>

using namespace ccl;
using namespace ccl::obs;

//===----------------------------------------------------------------------===//
// FieldProfileSink
//===----------------------------------------------------------------------===//

FieldProfileSink::FieldProfileSink(const reflect::TypeRegistry &Registry)
    : Registry(Registry) {}

uint32_t FieldProfileSink::profileIndexFor(uint32_t TypeId) {
  for (size_t I = 0; I < Profiles.size(); ++I)
    if (Profiles[I].TypeId == TypeId)
      return static_cast<uint32_t>(I);
  const reflect::TypeDesc &Desc = Registry.type(TypeId);
  TypeFieldProfile P;
  P.TypeId = TypeId;
  P.Fields.resize(Desc.Fields.size());
  Profiles.push_back(std::move(P));
  return static_cast<uint32_t>(Profiles.size() - 1);
}

void FieldProfileSink::addObject(uint64_t Base, uint32_t TypeId) {
  const reflect::TypeDesc &Desc = Registry.type(TypeId);
  uint32_t Index = profileIndexFor(TypeId);
  Profiles[Index].Objects += 1;
  Bindings.push_back({Base, Base + Desc.Size, Desc.Size, Desc.Size, Index});
  Sealed = false;
}

void FieldProfileSink::addStrideRegion(uint64_t Base, uint64_t Bytes,
                                       uint32_t TypeId) {
  const reflect::TypeDesc &Desc = Registry.type(TypeId);
  assert(Desc.Size != 0 && "stride region over empty type");
  uint32_t Index = profileIndexFor(TypeId);
  Profiles[Index].Objects += Bytes / Desc.Size;
  Bindings.push_back({Base, Base + Bytes, Desc.Size, Desc.Size, Index});
  Sealed = false;
}

void FieldProfileSink::seal() {
  if (Sealed)
    return;
  std::sort(Bindings.begin(), Bindings.end(),
            [](const Binding &A, const Binding &B) { return A.Base < B.Base; });
  LastBinding = 0;
  Sealed = true;
}

int FieldProfileSink::findBinding(uint64_t Addr) const {
  if (Bindings.empty())
    return -1;
  // Locality cache: traversals revisit the same binding run.
  if (LastBinding < Bindings.size()) {
    const Binding &B = Bindings[LastBinding];
    if (Addr >= B.Base && Addr < B.End)
      return static_cast<int>(LastBinding);
  }
  size_t Lo = 0, Hi = Bindings.size();
  while (Lo < Hi) {
    size_t Mid = (Lo + Hi) / 2;
    if (Bindings[Mid].Base <= Addr)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  if (Lo == 0)
    return -1;
  const Binding &B = Bindings[Lo - 1];
  if (Addr < B.End) {
    LastBinding = Lo - 1;
    return static_cast<int>(Lo - 1);
  }
  return -1;
}

void FieldProfileSink::onAccess(const AccessEvent &Event) {
  if (!Sealed)
    seal();
  int BIdx = findBinding(Event.VAddr);
  if (BIdx < 0) {
    ++Unattributed;
    return;
  }
  const Binding &B = Bindings[static_cast<size_t>(BIdx)];
  TypeFieldProfile &Profile = Profiles[B.ProfileIndex];
  const reflect::TypeDesc &Desc = Registry.type(Profile.TypeId);

  uint64_t ObjOff = (Event.VAddr - B.Base) % B.Stride;
  if (ObjOff >= B.TypeSize) {
    // Inside a stride region's inter-object padding (cannot happen when
    // Stride == TypeSize, kept for future padded strides).
    ++Unattributed;
    return;
  }
  ++Attributed;
  ++Profile.Accesses;

  // The first touched byte picks the primary field that is charged the
  // event-level counters (miss level, TLB, cycles); byte counts are
  // spread over every overlapped field.
  uint32_t Off = static_cast<uint32_t>(ObjOff);
  uint32_t EndOff =
      std::min<uint32_t>(Off + std::max<uint32_t>(Event.Size, 1), Desc.Size);
  int Primary = Desc.fieldAt(Off);
  if (Primary < 0) {
    // Touched a padding hole first: charge the first field the span
    // reaches, if any.
    for (size_t I = 0; I < Desc.Fields.size(); ++I) {
      if (Desc.Fields[I].end() <= Off)
        continue;
      if (Desc.Fields[I].Offset < EndOff)
        Primary = static_cast<int>(I);
      break;
    }
  }
  if (Primary >= 0) {
    FieldCounters &C = Profile.Fields[static_cast<size_t>(Primary)];
    if (Event.IsWrite)
      ++C.Writes;
    else
      ++C.Reads;
    if (Event.Level != AccessLevel::L1Hit)
      ++C.L1Misses;
    if (isL2Fill(Event.Level))
      ++C.L2Misses;
    if (Event.TlbMiss)
      ++C.TlbMisses;
    C.Cycles += Event.Cycles;
  }

  uint32_t Covered = Off;
  for (size_t I = 0; I < Desc.Fields.size() && Covered < EndOff; ++I) {
    const reflect::FieldDesc &F = Desc.Fields[I];
    if (F.end() <= Covered)
      continue;
    if (F.Offset >= EndOff)
      break;
    uint32_t Lo = std::max(F.Offset, Off);
    uint32_t Hi = std::min(F.end(), EndOff);
    if (F.Offset > Covered) // padding hole before this field
      Profile.PaddingBytesTouched += F.Offset - Covered;
    Profile.Fields[I].BytesAccessed += Hi - Lo;
    Covered = Hi;
  }
  if (Covered < EndOff) // tail padding
    Profile.PaddingBytesTouched += EndOff - Covered;
}

const TypeFieldProfile *FieldProfileSink::profileFor(uint32_t TypeId) const {
  for (const TypeFieldProfile &P : Profiles)
    if (P.TypeId == TypeId)
      return &P;
  return nullptr;
}

std::vector<const TypeFieldProfile *> FieldProfileSink::profiles() const {
  std::vector<const TypeFieldProfile *> Out;
  for (const TypeFieldProfile &P : Profiles)
    if (P.Accesses != 0)
      Out.push_back(&P);
  return Out;
}

//===----------------------------------------------------------------------===//
// ccl-fields-v1 writer
//===----------------------------------------------------------------------===//

void ccl::obs::writeFieldsJsonl(const FieldProfileSink &Sink, std::FILE *Out,
                                bool IncludeIdle) {
  std::fprintf(Out, "{\"kind\":\"meta\",");
  writeMeta(Out, "ccl-fields-v1");
  std::fprintf(Out,
               ",\"attributed\":%" PRIu64 ",\"unattributed\":%" PRIu64 "}\n",
               Sink.attributedEvents(), Sink.unattributedEvents());
  const reflect::TypeRegistry &Registry = Sink.registry();
  for (const reflect::TypeDesc *Desc : Registry.all()) {
    int Id = Registry.idOf(Desc->Name);
    const TypeFieldProfile *P =
        Id < 0 ? nullptr : Sink.profileFor(static_cast<uint32_t>(Id));
    if (!P || (P->Accesses == 0 && !IncludeIdle))
      continue;
    std::fprintf(Out,
                 "{\"kind\":\"type\",\"name\":\"%s\",\"module\":\"%s\","
                 "\"size\":%" PRIu32 ",\"align\":%" PRIu32
                 ",\"objects\":%" PRIu64 ",\"accesses\":%" PRIu64
                 ",\"pad_bytes\":%" PRIu64 "}\n",
                 jsonEscape(Desc->Name).c_str(),
                 jsonEscape(Desc->Module).c_str(), Desc->Size, Desc->Align,
                 P->Objects, P->Accesses, P->PaddingBytesTouched);
    for (size_t I = 0; I < Desc->Fields.size(); ++I) {
      const reflect::FieldDesc &F = Desc->Fields[I];
      const FieldCounters &C = P->Fields[I];
      std::fprintf(Out,
                   "{\"kind\":\"f\",\"type\":\"%s\",\"field\":\"%s\","
                   "\"off\":%" PRIu32 ",\"size\":%" PRIu32 ",\"align\":%" PRIu32
                   ",\"ftype\":\"%s\",\"n\":%" PRIu32 ",\"reads\":%" PRIu64
                   ",\"writes\":%" PRIu64 ",\"l1m\":%" PRIu64
                   ",\"l2m\":%" PRIu64 ",\"tlbm\":%" PRIu64
                   ",\"cyc\":%" PRIu64 ",\"bytes\":%" PRIu64 "}\n",
                   jsonEscape(Desc->Name).c_str(), jsonEscape(F.Name).c_str(),
                   F.Offset, F.Size, F.Align, jsonEscape(F.TypeName).c_str(),
                   F.ElemCount, C.Reads, C.Writes, C.L1Misses, C.L2Misses,
                   C.TlbMisses, C.Cycles, C.BytesAccessed);
    }
  }
}

//===----------------------------------------------------------------------===//
// ccl-fields-v1 reader
//===----------------------------------------------------------------------===//

const FieldsTypeDoc *FieldsDoc::findType(const std::string &Name) const {
  for (const FieldsTypeDoc &T : Types)
    if (T.Name == Name)
      return &T;
  return nullptr;
}

bool ccl::obs::parseFieldsLine(JsonObject &Line, FieldsDoc &Doc) {
  std::string Kind;
  Line.need("kind", Kind);
  if (!Line.ok())
    return false;
  if (Kind == "meta") {
    readMeta(Line, Doc.Schema, Doc.Binary, Doc.Git);
    Line.get("attributed", Doc.Attributed);
    Line.get("unattributed", Doc.Unattributed);
    if (Line.ok() && Doc.Schema != "ccl-fields-v1")
      return Line.fail("not a ccl-fields-v1 dump");
    return Line.ok();
  }
  if (Doc.Schema.empty())
    return Line.fail("record before the ccl-fields-v1 meta line");
  if (Kind == "type") {
    FieldsTypeDoc T;
    Line.get("name", T.Name);
    Line.get("module", T.Module);
    Line.get("size", T.Size);
    Line.get("align", T.Align);
    Line.get("objects", T.Objects);
    Line.get("accesses", T.Accesses);
    Line.get("pad_bytes", T.PaddingBytesTouched);
    if (!Line.ok())
      return false;
    Doc.Types.push_back(std::move(T));
    return true;
  }
  if (Kind == "f") {
    std::string TypeName;
    FieldsFieldDoc F;
    Line.get("type", TypeName);
    Line.get("field", F.Name);
    Line.get("off", F.Offset);
    Line.get("size", F.Size);
    Line.get("align", F.Align);
    Line.get("ftype", F.TypeName);
    Line.get("n", F.ElemCount);
    Line.get("reads", F.Counters.Reads);
    Line.get("writes", F.Counters.Writes);
    Line.get("l1m", F.Counters.L1Misses);
    Line.get("l2m", F.Counters.L2Misses);
    Line.get("tlbm", F.Counters.TlbMisses);
    Line.get("cyc", F.Counters.Cycles);
    Line.get("bytes", F.Counters.BytesAccessed);
    if (!Line.ok())
      return false;
    FieldsTypeDoc *Owner = nullptr;
    for (FieldsTypeDoc &T : Doc.Types)
      if (T.Name == TypeName)
        Owner = &T;
    if (!Owner)
      return false; // orphan field line: skipped, like unknown kinds
    Owner->Fields.push_back(std::move(F));
    return true;
  }
  return false;
}

bool ccl::obs::readFieldsFile(const std::string &Path, FieldsDoc &Doc,
                              std::string &Error) {
  if (!readJsonLines(
          Path, [&](JsonObject &Line) { parseFieldsLine(Line, Doc); }, Error))
    return false;
  if (Doc.Schema.empty()) {
    Error = Path + ": no ccl-fields-v1 meta line";
    return false;
  }
  return true;
}
