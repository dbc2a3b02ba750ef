//===- tests/obs_test.cpp - Telemetry subsystem unit tests ------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the observability subsystem: the region registry and its
// allocator registration helpers, the attribution sink's per-region and
// block-utilization accounting, trace-dump sampling, the JSONL round trip
// (live sink vs. one rebuilt purely from a dump), the profile exporters,
// and MultiObserver fan-out.
//
//===----------------------------------------------------------------------===//

#include "core/CacheParams.h"
#include "core/ColoredArena.h"
#include "heap/CcHeap.h"
#include "obs/Attribution.h"
#include "obs/Export.h"
#include "obs/Observer.h"
#include "obs/Region.h"
#include "obs/TraceReader.h"
#include "sim/MemoryHierarchy.h"
#include "support/Align.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace ccl;
using namespace ccl::obs;

namespace {

uint64_t vaddr(const void *Ptr) { return reinterpret_cast<uint64_t>(Ptr); }

std::string slurp(std::FILE *F) {
  std::string Content;
  std::rewind(F);
  int C;
  while ((C = std::fgetc(F)) != EOF)
    Content.push_back(char(C));
  return Content;
}

/// Reads a dump line by line through parseTraceLine, calling \p Callback
/// for each record; returns the number of records.
template <typename Fn> long readTrace(std::FILE *F, Fn &&Callback) {
  long Parsed = 0;
  char Line[4096];
  while (std::fgets(Line, sizeof(Line), F)) {
    TraceRecord Record;
    if (parseTraceLine(std::string(Line), Record)) {
      ++Parsed;
      Callback(Record);
    }
  }
  return Parsed;
}

void expectProfileEq(const RegionProfile &A, const RegionProfile &B) {
  EXPECT_EQ(A.Reads, B.Reads);
  EXPECT_EQ(A.Writes, B.Writes);
  EXPECT_EQ(A.L1Hits, B.L1Hits);
  EXPECT_EQ(A.L1Misses, B.L1Misses);
  EXPECT_EQ(A.L2Hits, B.L2Hits);
  EXPECT_EQ(A.L2Misses, B.L2Misses);
  EXPECT_EQ(A.TlbMisses, B.TlbMisses);
  EXPECT_EQ(A.PrefetchFullHits, B.PrefetchFullHits);
  EXPECT_EQ(A.PrefetchPartialHits, B.PrefetchPartialHits);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.BytesAccessed, B.BytesAccessed);
  EXPECT_EQ(A.BlocksFetched, B.BlocksFetched);
  EXPECT_EQ(A.BytesFetched, B.BytesFetched);
  EXPECT_EQ(A.BytesUsed, B.BytesUsed);
  EXPECT_EQ(A.BlocksEvicted, B.BlocksEvicted);
  EXPECT_EQ(A.Writebacks, B.Writebacks);
}

} // namespace

TEST(RegionRegistry, DefinesDeduplicateByNameAndColor) {
  RegionRegistry Registry;
  uint32_t A = Registry.define("tree");
  EXPECT_NE(A, RegionRegistry::Unknown);
  EXPECT_EQ(Registry.define("tree"), A);
  uint32_t Hot = Registry.define(RegionInfo{"tree", "hot", {}});
  EXPECT_NE(Hot, A);
  EXPECT_EQ(Registry.define(RegionInfo{"tree", "hot", {}}), Hot);
  EXPECT_EQ(Registry.regionCount(), 3u); // (unknown) + tree + tree[hot]
  EXPECT_EQ(Registry.info(RegionRegistry::Unknown).Name, "(unknown)");
}

TEST(RegionRegistry, ResolvesRangeBoundaries) {
  RegionRegistry Registry;
  uint32_t A = Registry.define("a");
  uint32_t B = Registry.define(RegionInfo{"b", "hot", "here.cpp:1"});
  Registry.addRange(uint64_t(0x2000), 0x100, B); // out-of-order insert
  Registry.addRange(uint64_t(0x1000), 0x100, A);
  EXPECT_EQ(Registry.rangeCount(), 2u);

  EXPECT_EQ(Registry.resolve(0x0FFF), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.resolve(0x1000), A);
  EXPECT_EQ(Registry.resolve(0x10FF), A);
  EXPECT_EQ(Registry.resolve(0x1100), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.resolve(0x1FFF), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.resolve(0x2080), B);
  EXPECT_EQ(Registry.resolve(0x2100), RegionRegistry::Unknown);
  EXPECT_EQ(Registry.info(B).ColorClass, "hot");

  // Interleaved resolves must not be confused by the locality cache.
  EXPECT_EQ(Registry.resolve(0x1080), A);
  EXPECT_EQ(Registry.resolve(0x2080), B);
  EXPECT_EQ(Registry.resolve(0x1080), A);

  // Re-adding a range with the same base (allocator re-sync) is a no-op.
  Registry.addRange(uint64_t(0x1000), 0x100, A);
  EXPECT_EQ(Registry.rangeCount(), 2u);

  Registry.clear();
  EXPECT_EQ(Registry.regionCount(), 1u);
  EXPECT_EQ(Registry.rangeCount(), 0u);
  EXPECT_EQ(Registry.resolve(0x1000), RegionRegistry::Unknown);
}

TEST(RegionRegistry, RegistersColoredArenaHotAndCold) {
  CacheParams Params;
  Params.CacheSets = 64;
  Params.Associativity = 1;
  Params.BlockBytes = 64;
  Params.PageBytes = 4096;
  Params.HotSets = 32;
  ASSERT_TRUE(Params.isValid());
  ColoredArena Storage(Params);
  void *Hot = Storage.allocateIn(64, /*Hot=*/true);
  void *Cold = Storage.allocateIn(64, /*Hot=*/false);
  ASSERT_TRUE(Storage.isHot(Hot));
  ASSERT_FALSE(Storage.isHot(Cold));

  RegionRegistry Registry;
  uint32_t HotId = Registry.registerColoredArena(Storage, "ctree");
  EXPECT_EQ(Registry.resolve(vaddr(Hot)), HotId);
  EXPECT_EQ(Registry.info(HotId).Name, "ctree");
  EXPECT_EQ(Registry.info(HotId).ColorClass, "hot");

  uint32_t ColdId = Registry.resolve(vaddr(Cold));
  EXPECT_NE(ColdId, RegionRegistry::Unknown);
  EXPECT_NE(ColdId, HotId);
  EXPECT_EQ(Registry.info(ColdId).Name, "ctree");
  EXPECT_EQ(Registry.info(ColdId).ColorClass, "cold");
}

TEST(RegionRegistry, RegistersHeapPages) {
  heap::CcHeap Heap;
  void *P = Heap.allocate(40);
  void *Q = Heap.allocate(96);
  RegionRegistry Registry;
  uint32_t Id = Registry.registerHeap(Heap, "ccheap");
  EXPECT_EQ(Registry.resolve(vaddr(P)), Id);
  EXPECT_EQ(Registry.resolve(vaddr(Q)), Id);
}

TEST(Attribution, BlockUtilizationTracksResidencies) {
  RegionRegistry Registry;
  uint32_t Region = Registry.define("synthetic");
  AttributionConfig Config;
  Config.L1BlockBytes = 16;
  Config.L1Sets = 4;
  Config.L2BlockBytes = 64;
  Config.L2Sets = 8;
  Config.HotSets = 2;
  AttributionSink Sink(Registry, Config);

  AccessEvent Fill; // memory fill opens a residency for mapped block 5
  Fill.Mapped = 5 * 64;
  Fill.Size = 8;
  Fill.Level = AccessLevel::Memory;
  Fill.Cycles = 70;
  Sink.record(Fill, Region);

  AccessEvent Touch; // second touch marks 4 more bytes at offset 16
  Touch.Mapped = 5 * 64 + 16;
  Touch.Size = 4;
  Touch.Level = AccessLevel::L1Hit;
  Touch.Cycles = 1;
  Sink.record(Touch, Region);

  // A dirty eviction closes the residency: 12 of 64 bytes were touched.
  Sink.recordEvict(EvictEvent{2, true, 5 * 64, 100});
  {
    const RegionProfile &P = Sink.regions()[Region];
    EXPECT_EQ(P.BlocksFetched, 1u);
    EXPECT_EQ(P.BytesFetched, 64u);
    EXPECT_EQ(P.BytesUsed, 12u);
    EXPECT_EQ(P.BlocksEvicted, 1u);
    EXPECT_EQ(P.Writebacks, 1u);
    EXPECT_DOUBLE_EQ(P.blockUtilization(), 12.0 / 64.0);
  }
  EXPECT_EQ(Sink.l2SetMisses()[5], 1u);
  EXPECT_EQ(Sink.l2SetEvictions()[5], 1u);
  EXPECT_EQ(Sink.l1SetMisses()[(5 * 64 / 16) % 4], 1u);

  // Evicting a block this sink never saw filled only bumps the per-set
  // eviction histogram (trace sampling can drop the fill).
  Sink.recordEvict(EvictEvent{2, false, 99 * 64, 120});
  EXPECT_EQ(Sink.regions()[Region].BlocksFetched, 1u);
  EXPECT_EQ(Sink.l2SetEvictions()[99 % 8], 1u);

  // L1 evictions carry no residency and must be ignored.
  Sink.recordEvict(EvictEvent{1, false, 5 * 64, 130});
  EXPECT_EQ(Sink.regions()[Region].BlocksFetched, 1u);

  // finalize() closes still-open residencies without counting evictions.
  AccessEvent Fill2;
  Fill2.Mapped = 6 * 64;
  Fill2.Size = 16;
  Fill2.Level = AccessLevel::PrefetchPartial;
  Fill2.Cycles = 30;
  Sink.record(Fill2, Region);
  Sink.finalize();
  const RegionProfile &P = Sink.regions()[Region];
  EXPECT_EQ(P.BlocksFetched, 2u);
  EXPECT_EQ(P.BytesUsed, 28u);
  EXPECT_EQ(P.BlocksEvicted, 1u);
  EXPECT_EQ(P.L2Misses, 2u);
  EXPECT_EQ(P.PrefetchPartialHits, 1u);
  EXPECT_EQ(P.references(), 3u);

  Sink.reset();
  EXPECT_EQ(Sink.totals().references(), 0u);
  EXPECT_EQ(Sink.accessEvents(), 0u);
  EXPECT_EQ(Sink.l2SetMisses()[5], 0u);
}

TEST(Attribution, LiveSinkReconcilesWithSimStats) {
  AlignedBuffer Storage = allocateAligned(1 << 16, 1 << 16);
  char *Buffer = Storage.get();
  RegionRegistry Registry;
  uint32_t Region =
      Registry.registerRange(Buffer, 1 << 16, {"buffer", {}, {}});

  sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();
  sim::MemoryHierarchy M(Config);
  AttributionSink Sink(Registry, AttributionConfig::fromHierarchy(Config));
  M.attachObserver(&Sink);

  // Strided reads and writes inside the region, plus a handful of
  // accesses to an unregistered address range.
  for (uint64_t Off = 0; Off + 8 <= 16384; Off += 16)
    M.read(vaddr(Buffer + Off), 8);
  for (uint64_t Off = 0; Off + 8 <= 16384; Off += 64)
    M.write(vaddr(Buffer + Off), 8);
  const uint64_t Outside = 0x7fee00000000ULL;
  for (unsigned I = 0; I < 32; ++I)
    M.read(Outside + I * 256, 4);
  Sink.finalize();

  const sim::SimStats &S = M.stats();
  ASSERT_TRUE(S.isConsistent());
  RegionProfile Total = Sink.totals();
  EXPECT_EQ(Sink.accessEvents(), S.memoryReferences());
  EXPECT_EQ(Total.Reads, S.Reads);
  EXPECT_EQ(Total.Writes, S.Writes);
  EXPECT_EQ(Total.L1Hits, S.L1Hits);
  EXPECT_EQ(Total.L1Misses, S.L1Misses);
  EXPECT_EQ(Total.L2Hits, S.L2Hits);
  EXPECT_EQ(Total.L2Misses, S.L2Misses);
  EXPECT_EQ(Total.TlbMisses, S.TlbMisses);
  EXPECT_EQ(Total.Cycles, M.now());

  // Region split: everything except the 32 outside reads belongs to the
  // registered buffer, and the byte counts match the access pattern.
  const RegionProfile &Mine = Sink.regions()[Region];
  const RegionProfile &Unknown = Sink.regions()[RegionRegistry::Unknown];
  EXPECT_EQ(Unknown.references(), 32u);
  EXPECT_EQ(Mine.references(), S.memoryReferences() - 32);
  EXPECT_EQ(Mine.BytesAccessed, 1024u * 8 + 256u * 8);

  // Every fetched block was closed exactly once, by an eviction event or
  // by finalize().
  EXPECT_EQ(Total.BlocksFetched, S.L2Misses + S.PrefetchFullHits);
  EXPECT_EQ(Total.BytesFetched, Total.BlocksFetched * Config.L2.BlockBytes);
  EXPECT_GT(Total.BytesUsed, 0u);
  EXPECT_LE(Total.BytesUsed, Total.BytesFetched);

  // Histogram mass equals the corresponding miss counters.
  uint64_t L1Mass = 0;
  for (uint64_t Count : Sink.l1SetMisses())
    L1Mass += Count;
  EXPECT_EQ(L1Mass, S.L1Misses);
  uint64_t L2Mass = 0;
  for (uint64_t Count : Sink.l2SetMisses())
    L2Mass += Count;
  EXPECT_EQ(L2Mass, S.L2Misses + S.PrefetchFullHits);
}

TEST(TraceSink, SamplesEveryNthEvent) {
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  AttributionConfig Config;
  TraceSinkOptions Options;
  Options.SampleInterval = 4;
  Options.IncludePrefetches = false;

  TraceSink Sink(F, Config, nullptr, Options);
  AccessEvent Event;
  Event.Size = 8;
  for (unsigned I = 0; I < 10; ++I) {
    Event.VAddr = I * 16;
    Sink.onAccess(Event);
  }
  PrefetchEvent Prefetch;
  Sink.onPrefetch(Prefetch); // suppressed by IncludePrefetches = false
  EXPECT_EQ(Sink.accessEventsSeen(), 10u);
  EXPECT_EQ(Sink.linesWritten(), 4u); // meta + access events 0, 4, 8

  std::rewind(F);
  unsigned AccessRecords = 0, MetaRecords = 0, PrefetchRecords = 0;
  uint64_t Sample = 0;
  long Parsed = readTrace(F, [&](const TraceRecord &Record) {
    switch (Record.RecordKind) {
    case TraceRecord::Kind::Access:
      ++AccessRecords;
      break;
    case TraceRecord::Kind::Meta:
      ++MetaRecords;
      Sample = Record.SampleInterval;
      break;
    case TraceRecord::Kind::Prefetch:
      ++PrefetchRecords;
      break;
    default:
      break;
    }
  });
  std::fclose(F);
  EXPECT_EQ(Parsed, 4);
  EXPECT_EQ(MetaRecords, 1u);
  EXPECT_EQ(AccessRecords, 3u);
  EXPECT_EQ(PrefetchRecords, 0u);
  EXPECT_EQ(Sample, 4u);
}

TEST(TraceExport, JsonlRoundTripRebuildsIdenticalProfile) {
  AlignedBuffer Storage = allocateAligned(1 << 16, 1 << 16);
  char *Buffer = Storage.get();
  RegionRegistry Registry;
  Registry.registerRange(Buffer, 1 << 16, {"tree", {}, {}});

  sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();
  Config.Prefetch.NextLineDegree = 1; // exercise hw-prefetch records too
  AttributionConfig AConfig = AttributionConfig::fromHierarchy(Config, 64);
  sim::MemoryHierarchy M(Config);

  AttributionSink Live(Registry, AConfig);
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  TraceSink Trace(F, AConfig, &Registry);
  MultiObserver Fan;
  Fan.add(&Live);
  Fan.add(&Trace);
  M.attachObserver(&Fan);

  for (uint64_t Off = 0; Off + 8 <= 8192; Off += 8) {
    if (Off % 128 == 0)
      M.prefetch(vaddr(Buffer + (Off + 256) % 8192));
    if (Off % 32 == 0)
      M.write(vaddr(Buffer + Off), 8);
    else
      M.read(vaddr(Buffer + Off), 8);
  }
  for (unsigned I = 0; I < 64; ++I) // TLB misses, unknown region
    M.read(0x7fdd00000000ULL + I * 4096, 8);
  Live.finalize();

  // Rebuild a second sink purely from the JSONL dump. The same registry
  // is reused, so trace region ids need no remapping.
  std::rewind(F);
  std::unique_ptr<AttributionSink> Replayed;
  long Parsed = readTrace(F, [&](const TraceRecord &Record) {
    switch (Record.RecordKind) {
    case TraceRecord::Kind::Meta:
      Replayed = std::make_unique<AttributionSink>(Registry, Record.Config);
      break;
    case TraceRecord::Kind::Region:
      break;
    case TraceRecord::Kind::Access:
      ASSERT_NE(Replayed, nullptr);
      Replayed->record(Record.Access, Record.RegionId);
      break;
    case TraceRecord::Kind::Evict:
      Replayed->recordEvict(Record.Evict);
      break;
    case TraceRecord::Kind::Prefetch:
      Replayed->onPrefetch(Record.Prefetch);
      break;
    }
  });
  std::fclose(F);
  ASSERT_NE(Replayed, nullptr);
  EXPECT_EQ(uint64_t(Parsed), Trace.linesWritten());
  Replayed->finalize();

  // The meta record must carry the full geometry...
  EXPECT_EQ(Replayed->config().L1BlockBytes, AConfig.L1BlockBytes);
  EXPECT_EQ(Replayed->config().L1Sets, AConfig.L1Sets);
  EXPECT_EQ(Replayed->config().L2BlockBytes, AConfig.L2BlockBytes);
  EXPECT_EQ(Replayed->config().L2Sets, AConfig.L2Sets);
  EXPECT_EQ(Replayed->config().HotSets, 64u);

  // ...and the rebuilt profile must be bit-identical to the live one.
  EXPECT_EQ(Replayed->accessEvents(), Live.accessEvents());
  EXPECT_EQ(Replayed->swPrefetches(), Live.swPrefetches());
  ASSERT_EQ(Replayed->regions().size(), Live.regions().size());
  for (size_t I = 0; I < Live.regions().size(); ++I) {
    SCOPED_TRACE("region " + std::to_string(I));
    expectProfileEq(Live.regions()[I], Replayed->regions()[I]);
  }
  EXPECT_EQ(Live.l1SetMisses(), Replayed->l1SetMisses());
  EXPECT_EQ(Live.l2SetMisses(), Replayed->l2SetMisses());
  EXPECT_EQ(Live.l2SetEvictions(), Replayed->l2SetEvictions());
}

TEST(ProfileExport, JsonAndCsvCarrySchemaAndRegions) {
  RegionRegistry Registry;
  uint32_t Region = Registry.define(RegionInfo{"btree", "hot", {}});
  AttributionConfig Config;
  Config.L2BlockBytes = 64;
  Config.L2Sets = 8;
  AttributionSink Sink(Registry, Config);
  AccessEvent Fill;
  Fill.Mapped = 3 * 64;
  Fill.Size = 8;
  Fill.Level = AccessLevel::Memory;
  Fill.Cycles = 70;
  Sink.record(Fill, Region);
  Sink.finalize();

  std::FILE *Json = std::tmpfile();
  ASSERT_NE(Json, nullptr);
  writeProfileJson(Sink, Json, "fig5", "abc123");
  std::string JsonText = slurp(Json);
  std::fclose(Json);
  EXPECT_EQ(JsonText.rfind("{\"schema\":\"ccl-profile-v1\",\"binary\":"
                          "\"fig5\",\"git\":\"abc123\",",
                          0),
            0u);
  EXPECT_NE(JsonText.find("\"name\":\"btree\""), std::string::npos);
  EXPECT_NE(JsonText.find("\"color\":\"hot\""), std::string::npos);
  EXPECT_NE(JsonText.find("\"block_utilization\":0.125000"),
            std::string::npos);
  EXPECT_NE(JsonText.find("\"l2_set_conflicts\":[[3,1,0]]"),
            std::string::npos);

  std::FILE *Csv = std::tmpfile();
  ASSERT_NE(Csv, nullptr);
  writeProfileCsv(Sink, Csv);
  std::string CsvText = slurp(Csv);
  std::fclose(Csv);
  EXPECT_EQ(CsvText.rfind("region,color,reads,", 0), 0u);
  EXPECT_NE(CsvText.find("btree,hot,1,0,1,1,"), std::string::npos);
}

TEST(TraceExport, LegacyShardLinesAreSkipped) {
  // A dump written while the set-sharded replay engine existed: its
  // "shard" telemetry line sits between ordinary events. Every other
  // line must still parse, the shard line must be skipped, and the
  // rebuilt profile must carry no replay_sharding key. The profile
  // carries the dump's envelope stamp.
  const char *Dump =
      "{\"kind\":\"meta\",\"schema\":\"ccl-trace-v2\",\"l1_block\":16,"
      "\"l1_sets\":1024,\"l2_block\":64,\"l2_sets\":16384,\"hot_sets\":64,"
      "\"sample\":1,\"trace_block\":64,\"binary\":\"fig5\",\"git\":\"x\"}\n"
      "{\"kind\":\"region\",\"id\":1,\"name\":\"ctree\",\"color\":\"hot\"}\n"
      "{\"kind\":\"a\",\"now\":71,\"va\":4096,\"pa\":1048576,\"sz\":8,"
      "\"w\":0,\"lvl\":\"mem\",\"tlb\":0,\"cyc\":70,\"r\":1}\n"
      "{\"kind\":\"shard\",\"shards\":256,\"groups\":16,\"workers\":4,"
      "\"records\":100000,\"min\":300,\"max\":500,\"parallel\":1,"
      "\"reason\":\"\"}\n"
      "{\"kind\":\"e\",\"now\":72,\"lvl\":2,\"pa\":1048576,\"wb\":0}\n"
      "{\"kind\":\"p\",\"now\":73,\"va\":8192,\"pa\":1052672,\"sw\":1}\n";
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  std::fputs(Dump, F);
  std::rewind(F);

  RegionRegistry Registry;
  std::unique_ptr<AttributionSink> Sink;
  std::string Binary, Git;
  uint32_t Local = RegionRegistry::Unknown;
  std::vector<TraceRecord::Kind> Kinds;
  long Parsed = readTrace(F, [&](const TraceRecord &Record) {
    Kinds.push_back(Record.RecordKind);
    switch (Record.RecordKind) {
    case TraceRecord::Kind::Meta:
      Sink = std::make_unique<AttributionSink>(Registry, Record.Config);
      Binary = Record.Producer;
      Git = Record.ProducerGit;
      break;
    case TraceRecord::Kind::Region:
      Local = Registry.define(Record.Region);
      break;
    case TraceRecord::Kind::Access:
      ASSERT_NE(Sink, nullptr);
      Sink->record(Record.Access, Local);
      break;
    case TraceRecord::Kind::Evict:
      Sink->recordEvict(Record.Evict);
      break;
    case TraceRecord::Kind::Prefetch:
      Sink->onPrefetch(Record.Prefetch);
      break;
    }
  });
  std::fclose(F);
  EXPECT_EQ(Parsed, 5);
  EXPECT_EQ(Kinds, (std::vector<TraceRecord::Kind>{
                       TraceRecord::Kind::Meta, TraceRecord::Kind::Region,
                       TraceRecord::Kind::Access, TraceRecord::Kind::Evict,
                       TraceRecord::Kind::Prefetch}));
  ASSERT_NE(Sink, nullptr);
  Sink->finalize();
  EXPECT_EQ(Sink->accessEvents(), 1u);
  EXPECT_EQ(Sink->swPrefetches(), 1u);
  EXPECT_EQ(Sink->regions()[Local].L2Misses, 1u);

  std::FILE *Json = std::tmpfile();
  ASSERT_NE(Json, nullptr);
  writeProfileJson(*Sink, Json, Binary, Git);
  std::string Text = slurp(Json);
  std::fclose(Json);
  EXPECT_EQ(Text.rfind("{\"schema\":\"ccl-profile-v1\",\"binary\":\"fig5\","
                      "\"git\":\"x\",",
                      0),
            0u);
  EXPECT_NE(Text.find("\"name\":\"ctree\""), std::string::npos);
  EXPECT_EQ(Text.find("trace_codec"), std::string::npos);
  EXPECT_EQ(Text.find("replay_sharding"), std::string::npos);
}

TEST(MultiObserver, FansOutInAttachOrder) {
  struct Counter final : SimObserver {
    unsigned Accesses = 0, Evicts = 0, Prefetches = 0;
    void onAccess(const AccessEvent &) override { ++Accesses; }
    void onEvict(const EvictEvent &) override { ++Evicts; }
    void onPrefetch(const PrefetchEvent &) override { ++Prefetches; }
  };
  Counter A, B;
  MultiObserver Fan;
  Fan.add(&A);
  Fan.add(nullptr); // ignored
  Fan.add(&B);
  Fan.onAccess(AccessEvent{});
  Fan.onAccess(AccessEvent{});
  Fan.onEvict(EvictEvent{});
  Fan.onPrefetch(PrefetchEvent{});
  EXPECT_EQ(A.Accesses, 2u);
  EXPECT_EQ(B.Accesses, 2u);
  EXPECT_EQ(A.Evicts, 1u);
  EXPECT_EQ(B.Evicts, 1u);
  EXPECT_EQ(A.Prefetches, 1u);
  EXPECT_EQ(B.Prefetches, 1u);
}

TEST(TraceReader, ParsesRecordsAndSkipsJunk) {
  TraceRecord Record;
  EXPECT_FALSE(parseTraceLine("", Record));
  EXPECT_FALSE(parseTraceLine("not json", Record));
  EXPECT_FALSE(parseTraceLine("{\"kind\":\"future-thing\"}", Record));

  ASSERT_TRUE(parseTraceLine(
      "{\"kind\":\"a\",\"now\":100,\"va\":4096,\"pa\":8192,\"sz\":8,"
      "\"w\":1,\"lvl\":\"pf-part\",\"tlb\":1,\"cyc\":70,\"r\":3}",
      Record));
  EXPECT_EQ(Record.RecordKind, TraceRecord::Kind::Access);
  EXPECT_EQ(Record.RegionId, 3u);
  EXPECT_EQ(Record.Access.Now, 100u);
  EXPECT_EQ(Record.Access.VAddr, 4096u);
  EXPECT_EQ(Record.Access.Mapped, 8192u);
  EXPECT_EQ(Record.Access.Size, 8u);
  EXPECT_TRUE(Record.Access.IsWrite);
  EXPECT_TRUE(Record.Access.TlbMiss);
  EXPECT_EQ(Record.Access.Level, AccessLevel::PrefetchPartial);
  EXPECT_EQ(Record.Access.Cycles, 70u);

  ASSERT_TRUE(parseTraceLine(
      "{\"kind\":\"meta\",\"schema\":\"ccl-trace-v1\",\"l1_block\":32,"
      "\"l1_sets\":512,\"l2_block\":128,\"l2_sets\":2048,\"hot_sets\":7,"
      "\"sample\":16}",
      Record));
  EXPECT_EQ(Record.RecordKind, TraceRecord::Kind::Meta);
  EXPECT_EQ(Record.Config.L1BlockBytes, 32u);
  EXPECT_EQ(Record.Config.L1Sets, 512u);
  EXPECT_EQ(Record.Config.L2BlockBytes, 128u);
  EXPECT_EQ(Record.Config.L2Sets, 2048u);
  EXPECT_EQ(Record.Config.HotSets, 7u);
  EXPECT_EQ(Record.SampleInterval, 16u);

  ASSERT_TRUE(parseTraceLine(
      "{\"kind\":\"e\",\"now\":55,\"lvl\":2,\"pa\":320,\"wb\":1}", Record));
  EXPECT_EQ(Record.RecordKind, TraceRecord::Kind::Evict);
  EXPECT_EQ(Record.Evict.Level, 2u);
  EXPECT_EQ(Record.Evict.MappedBlockAddr, 320u);
  EXPECT_TRUE(Record.Evict.Writeback);
}
