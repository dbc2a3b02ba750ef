//===- obs/TraceReader.cpp - JSONL trace dump parsing ---------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/TraceReader.h"

#include <cstdlib>
#include <cstring>

using namespace ccl::obs;

namespace {

/// Finds `"Key":` in \p Line and returns a pointer just past the colon,
/// or null.
const char *findValue(const std::string &Line, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\":";
  size_t Pos = Line.find(Needle);
  if (Pos == std::string::npos)
    return nullptr;
  return Line.c_str() + Pos + Needle.size();
}

bool getU64(const std::string &Line, const char *Key, uint64_t &Out) {
  const char *Value = findValue(Line, Key);
  if (!Value)
    return false;
  char *End = nullptr;
  Out = std::strtoull(Value, &End, 10);
  return End != Value;
}

bool getString(const std::string &Line, const char *Key, std::string &Out) {
  const char *Value = findValue(Line, Key);
  if (!Value || *Value != '"')
    return false;
  Out.clear();
  for (const char *P = Value + 1; *P && *P != '"'; ++P) {
    if (*P == '\\' && P[1]) {
      ++P;
      switch (*P) {
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      default:
        Out += *P; // \" \\ and anything exotic degrade to the raw char.
      }
    } else {
      Out += *P;
    }
  }
  return true;
}

bool parseLevel(const std::string &Name, AccessLevel &Out) {
  if (Name == "l1")
    Out = AccessLevel::L1Hit;
  else if (Name == "l2")
    Out = AccessLevel::L2Hit;
  else if (Name == "mem")
    Out = AccessLevel::Memory;
  else if (Name == "pf-full")
    Out = AccessLevel::PrefetchFull;
  else if (Name == "pf-part")
    Out = AccessLevel::PrefetchPartial;
  else
    return false;
  return true;
}

} // namespace

bool ccl::obs::parseTraceLine(const std::string &Line, TraceRecord &Out) {
  std::string Kind;
  if (!getString(Line, "kind", Kind))
    return false;
  uint64_t U = 0;

  if (Kind == "meta") {
    Out.RecordKind = TraceRecord::Kind::Meta;
    AttributionConfig Config;
    if (getU64(Line, "l1_block", U))
      Config.L1BlockBytes = uint32_t(U);
    if (getU64(Line, "l1_sets", U))
      Config.L1Sets = U;
    if (getU64(Line, "l2_block", U))
      Config.L2BlockBytes = uint32_t(U);
    if (getU64(Line, "l2_sets", U))
      Config.L2Sets = U;
    if (getU64(Line, "hot_sets", U))
      Config.HotSets = U;
    Out.Config = Config;
    Out.SampleInterval = getU64(Line, "sample", U) ? U : 1;
    getString(Line, "binary", Out.Producer);
    getString(Line, "git", Out.ProducerGit);
    getString(Line, "schema", Out.Schema);
    if (getU64(Line, "trace_block", U))
      Out.TraceBlock = U;
    return true;
  }

  if (Kind == "region") {
    Out.RecordKind = TraceRecord::Kind::Region;
    if (!getU64(Line, "id", U))
      return false;
    Out.RegionId = uint32_t(U);
    getString(Line, "name", Out.Region.Name);
    getString(Line, "color", Out.Region.ColorClass);
    return true;
  }

  if (Kind == "a") {
    Out.RecordKind = TraceRecord::Kind::Access;
    AccessEvent E;
    if (getU64(Line, "now", U))
      E.Now = U;
    if (getU64(Line, "va", U))
      E.VAddr = U;
    if (getU64(Line, "pa", U))
      E.Mapped = U;
    if (getU64(Line, "sz", U))
      E.Size = uint32_t(U);
    if (getU64(Line, "w", U))
      E.IsWrite = U != 0;
    if (getU64(Line, "tlb", U))
      E.TlbMiss = U != 0;
    if (getU64(Line, "cyc", U))
      E.Cycles = uint32_t(U);
    std::string Level;
    if (!getString(Line, "lvl", Level) || !parseLevel(Level, E.Level))
      return false;
    Out.Access = E;
    Out.RegionId = getU64(Line, "r", U) ? uint32_t(U) : 0;
    return true;
  }

  if (Kind == "e") {
    Out.RecordKind = TraceRecord::Kind::Evict;
    EvictEvent E;
    if (getU64(Line, "now", U))
      E.Now = U;
    if (getU64(Line, "lvl", U))
      E.Level = uint8_t(U);
    if (getU64(Line, "pa", U))
      E.MappedBlockAddr = U;
    if (getU64(Line, "wb", U))
      E.Writeback = U != 0;
    Out.Evict = E;
    return true;
  }

  if (Kind == "p") {
    Out.RecordKind = TraceRecord::Kind::Prefetch;
    PrefetchEvent E;
    if (getU64(Line, "now", U))
      E.Now = U;
    if (getU64(Line, "va", U))
      E.VAddr = U;
    if (getU64(Line, "pa", U))
      E.Mapped = U;
    if (getU64(Line, "sw", U))
      E.Software = U != 0;
    Out.Prefetch = E;
    return true;
  }

  return false;
}
