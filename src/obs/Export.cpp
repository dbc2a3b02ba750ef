//===- obs/Export.cpp - Telemetry exporters -------------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"

#include "obs/Json.h"
#include "support/TablePrinter.h"

#include <cinttypes>

using namespace ccl;
using namespace ccl::obs;

TraceSink::TraceSink(std::FILE *Out, const AttributionConfig &Config,
                     const RegionRegistry *Registry,
                     const TraceSinkOptions &Options)
    : Out(Out), Config(Config), Registry(Registry), Options(Options) {
  std::fprintf(Out, "{\"kind\":\"meta\",");
  writeMeta(Out, "ccl-trace-v2");
  std::fprintf(Out,
               ",\"l1_block\":%" PRIu32 ",\"l1_sets\":%" PRIu64
               ",\"l2_block\":%" PRIu32 ",\"l2_sets\":%" PRIu64
               ",\"hot_sets\":%" PRIu64 ",\"sample\":%" PRIu64 "}\n",
               Config.L1BlockBytes, Config.L1Sets, Config.L2BlockBytes,
               Config.L2Sets, Config.HotSets,
               Options.SampleInterval ? Options.SampleInterval : 1);
  ++Lines;
}

void TraceSink::emitRegionIfNew(uint32_t Id) {
  if (!Registry)
    return;
  if (Id < RegionEmitted.size() && RegionEmitted[Id])
    return;
  if (Id >= RegionEmitted.size())
    RegionEmitted.resize(Id + 1, false);
  RegionEmitted[Id] = true;
  const RegionInfo &Info = Registry->info(Id);
  std::fprintf(Out,
               "{\"kind\":\"region\",\"id\":%" PRIu32
               ",\"name\":\"%s\",\"color\":\"%s\"}\n",
               Id, jsonEscape(Info.Name).c_str(),
               jsonEscape(Info.ColorClass).c_str());
  ++Lines;
}

void TraceSink::onAccess(const AccessEvent &Event) {
  uint64_t Interval = Options.SampleInterval ? Options.SampleInterval : 1;
  if (AccessSeen++ % Interval != 0)
    return;
  uint32_t Region =
      Registry ? Registry->resolve(Event.VAddr) : RegionRegistry::Unknown;
  emitRegionIfNew(Region);
  std::fprintf(Out,
               "{\"kind\":\"a\",\"now\":%" PRIu64 ",\"va\":%" PRIu64
               ",\"pa\":%" PRIu64 ",\"sz\":%" PRIu32
               ",\"w\":%d,\"lvl\":\"%s\",\"tlb\":%d,\"cyc\":%" PRIu32
               ",\"r\":%" PRIu32 "}\n",
               Event.Now, Event.VAddr, Event.Mapped, Event.Size,
               Event.IsWrite ? 1 : 0, accessLevelName(Event.Level),
               Event.TlbMiss ? 1 : 0, Event.Cycles, Region);
  ++Lines;
}

void TraceSink::onEvict(const EvictEvent &Event) {
  if (!Options.IncludeEvictions)
    return;
  uint64_t Interval = Options.SampleInterval ? Options.SampleInterval : 1;
  if (EvictSeen++ % Interval != 0)
    return;
  std::fprintf(Out,
               "{\"kind\":\"e\",\"now\":%" PRIu64 ",\"lvl\":%d,\"pa\":%" PRIu64
               ",\"wb\":%d}\n",
               Event.Now, int(Event.Level), Event.MappedBlockAddr,
               Event.Writeback ? 1 : 0);
  ++Lines;
}

void TraceSink::onPrefetch(const PrefetchEvent &Event) {
  if (!Options.IncludePrefetches)
    return;
  uint64_t Interval = Options.SampleInterval ? Options.SampleInterval : 1;
  if (PrefetchSeen++ % Interval != 0)
    return;
  std::fprintf(Out,
               "{\"kind\":\"p\",\"now\":%" PRIu64 ",\"va\":%" PRIu64
               ",\"pa\":%" PRIu64 ",\"sw\":%d}\n",
               Event.Now, Event.VAddr, Event.Mapped,
               Event.Software ? 1 : 0);
  ++Lines;
}

namespace {

void writeRegionJson(std::FILE *Out, const RegionInfo &Info,
                     const RegionProfile &P) {
  std::fprintf(
      Out,
      "{\"name\":\"%s\",\"color\":\"%s\",\"reads\":%" PRIu64
      ",\"writes\":%" PRIu64 ",\"l1_hits\":%" PRIu64 ",\"l1_misses\":%" PRIu64
      ",\"l2_hits\":%" PRIu64 ",\"l2_misses\":%" PRIu64
      ",\"tlb_misses\":%" PRIu64 ",\"pf_full\":%" PRIu64
      ",\"pf_partial\":%" PRIu64 ",\"cycles\":%" PRIu64
      ",\"bytes_accessed\":%" PRIu64 ",\"blocks_fetched\":%" PRIu64
      ",\"bytes_fetched\":%" PRIu64 ",\"bytes_used\":%" PRIu64
      ",\"blocks_evicted\":%" PRIu64 ",\"writebacks\":%" PRIu64
      ",\"block_utilization\":%.6f}",
      jsonEscape(Info.Name).c_str(), jsonEscape(Info.ColorClass).c_str(),
      P.Reads, P.Writes, P.L1Hits, P.L1Misses, P.L2Hits, P.L2Misses,
      P.TlbMisses, P.PrefetchFullHits, P.PrefetchPartialHits, P.Cycles,
      P.BytesAccessed, P.BlocksFetched, P.BytesFetched, P.BytesUsed,
      P.BlocksEvicted, P.Writebacks, P.blockUtilization());
}

} // namespace

void ccl::obs::writeProfileJson(const AttributionSink &Sink, std::FILE *Out,
                                const std::string &Binary,
                                const std::string &Git) {
  const AttributionConfig &Config = Sink.config();
  std::fprintf(Out, "{");
  writeMeta(Out, "ccl-profile-v1", Binary, Git);
  std::fprintf(Out,
               ",\"l2_block\":%" PRIu32 ",\"l2_sets\":%" PRIu64
               ",\"hot_sets\":%" PRIu64 ",\"regions\":[",
               Config.L2BlockBytes, Config.L2Sets, Config.HotSets);
  bool First = true;
  const std::vector<RegionProfile> &Regions = Sink.regions();
  for (uint32_t Id = 0; Id < Regions.size(); ++Id) {
    const RegionProfile &P = Regions[Id];
    if (P.references() == 0 && P.BlocksFetched == 0)
      continue;
    if (!First)
      std::fprintf(Out, ",");
    First = false;
    writeRegionJson(Out, Sink.registry().info(Id), P);
  }
  std::fprintf(Out, "],\"totals\":");
  RegionProfile Total = Sink.totals();
  writeRegionJson(Out, RegionInfo{"(total)", {}, {}}, Total);

  // Nonzero L2 set-conflict entries: [set, misses, evictions].
  std::fprintf(Out, ",\"l2_set_conflicts\":[");
  const std::vector<uint64_t> &Misses = Sink.l2SetMisses();
  const std::vector<uint64_t> &Evictions = Sink.l2SetEvictions();
  First = true;
  for (uint64_t Set = 0; Set < Misses.size(); ++Set) {
    if (Misses[Set] == 0 && Evictions[Set] == 0)
      continue;
    if (!First)
      std::fprintf(Out, ",");
    First = false;
    std::fprintf(Out, "[%" PRIu64 ",%" PRIu64 ",%" PRIu64 "]", Set,
                 Misses[Set], Evictions[Set]);
  }
  std::fprintf(Out, "]}\n");
}

void ccl::obs::writeProfileCsv(const AttributionSink &Sink, std::FILE *Out) {
  TablePrinter Table({"region", "color", "reads", "writes", "l1_misses",
                      "l2_misses", "tlb_misses", "cycles", "bytes_accessed",
                      "blocks_fetched", "block_utilization"});
  const std::vector<RegionProfile> &Regions = Sink.regions();
  for (uint32_t Id = 0; Id < Regions.size(); ++Id) {
    const RegionProfile &P = Regions[Id];
    if (P.references() == 0 && P.BlocksFetched == 0)
      continue;
    const RegionInfo &Info = Sink.registry().info(Id);
    Table.addRow({Info.Name, Info.ColorClass, std::to_string(P.Reads),
                  std::to_string(P.Writes), std::to_string(P.L1Misses),
                  std::to_string(P.L2Misses), std::to_string(P.TlbMisses),
                  std::to_string(P.Cycles), std::to_string(P.BytesAccessed),
                  std::to_string(P.BlocksFetched),
                  TablePrinter::fmt(P.blockUtilization(), 6)});
  }
  Table.printCsv(Out);
}
