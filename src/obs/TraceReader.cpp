//===- obs/TraceReader.cpp - JSONL trace dump parsing ---------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/TraceReader.h"

using namespace ccl::obs;

namespace {

/// The inverse of accessLevelName().
bool parseLevel(const std::string &Name, AccessLevel &Out) {
  for (AccessLevel Level :
       {AccessLevel::L1Hit, AccessLevel::L2Hit, AccessLevel::Memory,
        AccessLevel::PrefetchFull, AccessLevel::PrefetchPartial}) {
    if (Name == accessLevelName(Level)) {
      Out = Level;
      return true;
    }
  }
  return false;
}

} // namespace

bool ccl::obs::parseTraceLine(JsonObject &Line, TraceRecord &Out) {
  std::string Kind;
  Line.need("kind", Kind);
  if (!Line.ok())
    return false;

  if (Kind == "meta") {
    Out = TraceRecord();
    Out.RecordKind = TraceRecord::Kind::Meta;
    Line.get("l1_block", Out.Config.L1BlockBytes);
    Line.get("l1_sets", Out.Config.L1Sets);
    Line.get("l2_block", Out.Config.L2BlockBytes);
    Line.get("l2_sets", Out.Config.L2Sets);
    Line.get("hot_sets", Out.Config.HotSets);
    Line.get("sample", Out.SampleInterval);
    readMeta(Line, Out.Schema, Out.Producer, Out.ProducerGit);
    if (Line.ok() && !Out.Config.valid())
      return Line.fail("cache geometry out of range (zero blocks or sets, "
                       "l2_block > 128, sets > 2^24, or hot_sets > l2_sets)");
    return Line.ok();
  }

  if (Kind == "region") {
    Out.RecordKind = TraceRecord::Kind::Region;
    Out.Region = RegionInfo();
    Line.need("id", Out.RegionId);
    Line.get("name", Out.Region.Name);
    Line.get("color", Out.Region.ColorClass);
    return Line.ok();
  }

  if (Kind == "a") {
    Out.RecordKind = TraceRecord::Kind::Access;
    AccessEvent &E = Out.Access;
    E = AccessEvent();
    Out.RegionId = 0;
    std::string Level;
    Line.get("now", E.Now);
    Line.get("va", E.VAddr);
    Line.get("pa", E.Mapped);
    Line.get("sz", E.Size);
    Line.get("w", E.IsWrite);
    Line.need("lvl", Level);
    Line.get("tlb", E.TlbMiss);
    Line.get("cyc", E.Cycles);
    Line.get("r", Out.RegionId);
    if (Line.ok() && !parseLevel(Level, E.Level))
      return Line.fail("\"lvl\": unknown level \"" + Level + "\"");
    return Line.ok();
  }

  if (Kind == "e") {
    Out.RecordKind = TraceRecord::Kind::Evict;
    EvictEvent &E = Out.Evict;
    E = EvictEvent();
    Line.get("now", E.Now);
    Line.get("lvl", E.Level);
    Line.get("pa", E.MappedBlockAddr);
    Line.get("wb", E.Writeback);
    return Line.ok();
  }

  if (Kind == "p") {
    Out.RecordKind = TraceRecord::Kind::Prefetch;
    PrefetchEvent &E = Out.Prefetch;
    E = PrefetchEvent();
    Line.get("now", E.Now);
    Line.get("va", E.VAddr);
    Line.get("pa", E.Mapped);
    Line.get("sw", E.Software);
    return Line.ok();
  }

  return false;
}

bool ccl::obs::parseTraceLine(const std::string &Line, TraceRecord &Out) {
  return mapJsonLine(
      Line, [&](JsonObject &Object) { return parseTraceLine(Object, Out); });
}
