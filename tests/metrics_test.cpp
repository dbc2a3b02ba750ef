//===- tests/metrics_test.cpp - Metrics registry and exporters ------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Covers the support-layer metrics registry (registration idempotence,
// concurrent adds under SweepRunner, heaps publishing their path counts
// from sweep workers, histogram bucket edges, spans), the
// ccl-metrics-v1 round-trip through the obs exporters, the PerfCounters
// unavailable fallback, and the ccl-bench-v1 reader.
//
// The registry is process-global and names are never unregistered, so
// the overflow test (which exhausts the counter table) lives in its own
// suite declared last in this file — gtest runs suites in order of
// first declaration, so a same-suite test would be hoisted ahead of the
// later suites and poison their registrations.
//
//===----------------------------------------------------------------------===//

#include "heap/CcHeap.h"
#include "obs/BenchReader.h"
#include "obs/MetricsExport.h"
#include "obs/PerfCounters.h"
#include "obs/TraceReader.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/SweepRunner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace ccl;

namespace {

uint64_t counterValue(const metrics::Snapshot &S, const std::string &Name) {
  for (const metrics::CounterSnapshot &C : S.Counters)
    if (C.Name == Name)
      return C.Value;
  ADD_FAILURE() << "counter not in snapshot: " << Name;
  return 0;
}

const metrics::HistogramSnapshot *
findHistogram(const metrics::Snapshot &S, const std::string &Name) {
  for (const metrics::HistogramSnapshot &H : S.Histograms)
    if (H.Name == Name)
      return &H;
  ADD_FAILURE() << "histogram not in snapshot: " << Name;
  return nullptr;
}

} // namespace

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  metrics::Counter A = metrics::counter("test.idem");
  metrics::Counter B = metrics::counter("test.idem");
  EXPECT_EQ(A.Id, B.Id);
  metrics::Counter Other = metrics::counter("test.idem_other");
  EXPECT_NE(A.Id, Other.Id);
  // Counter and histogram namespaces are independent.
  metrics::Histogram H1 = metrics::histogram("test.idem");
  metrics::Histogram H2 = metrics::histogram("test.idem");
  EXPECT_EQ(H1.Id, H2.Id);
}

TEST(MetricsRegistry, AddAndSnapshot) {
  metrics::resetForTest();
  metrics::Counter C = metrics::counter("test.basic");
  metrics::add(C);
  metrics::add(C, 41);
  metrics::Snapshot S = metrics::snapshot();
  EXPECT_EQ(counterValue(S, "test.basic"), 42u);
  EXPECT_FALSE(S.Overflowed);
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  metrics::resetForTest();
  metrics::Histogram H = metrics::histogram("test.edges");
  // Bucket 0 holds value 0; bucket B >= 1 holds [2^(B-1), 2^B).
  metrics::record(H, 0);
  metrics::record(H, 1);
  metrics::record(H, 2);
  metrics::record(H, 3);
  metrics::record(H, 4);
  metrics::record(H, 1023);
  metrics::record(H, 1024);
  metrics::Snapshot S = metrics::snapshot();
  const metrics::HistogramSnapshot *Snap = findHistogram(S, "test.edges");
  ASSERT_NE(Snap, nullptr);
  EXPECT_EQ(Snap->Count, 7u);
  EXPECT_EQ(Snap->Sum, 0u + 1 + 2 + 3 + 4 + 1023 + 1024);
  EXPECT_EQ(Snap->Buckets[0], 1u);  // 0
  EXPECT_EQ(Snap->Buckets[1], 1u);  // 1
  EXPECT_EQ(Snap->Buckets[2], 2u);  // 2, 3
  EXPECT_EQ(Snap->Buckets[3], 1u);  // 4
  EXPECT_EQ(Snap->Buckets[10], 1u); // 1023 = 2^10 - 1
  EXPECT_EQ(Snap->Buckets[11], 1u); // 1024 = 2^10
  EXPECT_EQ(Snap->usedBuckets(), 12u);
}

TEST(MetricsRegistry, AggregatesAcrossSweepWorkers) {
  metrics::resetForTest();
  metrics::Counter C = metrics::counter("test.sweep");
  metrics::Histogram H = metrics::histogram("test.sweep_cells");
  constexpr uint64_t Cells = 64;
  constexpr uint64_t PerCell = 1000;
  {
    SweepRunner Runner;
    Runner.run(Cells, [&](size_t) {
      for (uint64_t I = 0; I < PerCell; ++I)
        metrics::add(C);
      metrics::record(H, PerCell);
    });
  }
  metrics::Snapshot S = metrics::snapshot();
  EXPECT_EQ(counterValue(S, "test.sweep"), Cells * PerCell);
  const metrics::HistogramSnapshot *Snap =
      findHistogram(S, "test.sweep_cells");
  ASSERT_NE(Snap, nullptr);
  EXPECT_EQ(Snap->Count, Cells);
  EXPECT_EQ(Snap->Sum, Cells * PerCell);

  // A second pool keeps summing into the same cells.
  {
    SweepRunner Runner;
    Runner.run(Cells, [&](size_t) { metrics::add(C, PerCell); });
  }
  EXPECT_EQ(counterValue(metrics::snapshot(), "test.sweep"),
            2 * Cells * PerCell);
}

TEST(MetricsRegistry, HeapsOnSweepWorkersPublishEveryPathCount) {
  // Each heap counts its paths in HeapStats and adds them to the
  // ccmalloc.* counters when it is destroyed, on whichever worker
  // built it. A mix of small, multi-block, hinted and freed chunks
  // takes every counted path.
  metrics::resetForTest();
  constexpr size_t Cells = 16;
  std::vector<heap::HeapStats> Stats(Cells);
  SweepRunner(4).run(Cells, [&](size_t Cell) {
    heap::CcHeap Heap;
    Xoshiro256 Rng(Cell + 1);
    std::vector<void *> Live;
    for (size_t Op = 0; Op < 20000; ++Op) {
      uint64_t Roll = Rng.nextBounded(8);
      size_t Size = 8 + Rng.nextBounded(Roll == 7 ? 200 : 48);
      if (Roll < 3 && !Live.empty()) {
        size_t Victim = Rng.nextBounded(Live.size());
        Heap.deallocate(Live[Victim]);
        Live[Victim] = Live.back();
        Live.pop_back();
      } else if (Roll < 6 && !Live.empty()) {
        Live.push_back(Heap.allocateNear(Size, Live.back(),
                                         heap::CcStrategy::Closest));
      } else {
        Live.push_back(Heap.allocate(Size));
      }
    }
    Stats[Cell] = Heap.stats();
  });

  const std::pair<const char *, uint64_t heap::HeapStats::*> Paths[] = {
      {"ccmalloc.alloc_fast", &heap::HeapStats::AllocFast},
      {"ccmalloc.alloc_slow", &heap::HeapStats::AllocSlow},
      {"ccmalloc.near_fast", &heap::HeapStats::NearFast},
      {"ccmalloc.near_slow", &heap::HeapStats::NearSlow},
      {"ccmalloc.free_fast", &heap::HeapStats::FreeFast},
      {"ccmalloc.free_slow", &heap::HeapStats::FreeSlow},
      {"ccmalloc.bin_refill", &heap::HeapStats::BinRefill},
      {"ccmalloc.bin_recycle", &heap::HeapStats::BinRecycle},
      {"ccmalloc.slab_acquires", &heap::HeapStats::SlabAcquires},
  };
  metrics::Snapshot S = metrics::snapshot();
  for (const auto &[Name, Field] : Paths) {
    uint64_t Sum = 0;
    for (const heap::HeapStats &H : Stats)
      Sum += H.*Field;
    EXPECT_GT(Sum, 0u) << Name;
    EXPECT_EQ(counterValue(S, Name), Sum) << Name;
  }
}

TEST(MetricsRegistry, SpansRecord) {
  metrics::resetForTest();
  { metrics::ScopedSpan Span("test.phase"); }
  metrics::Snapshot S = metrics::snapshot();
  ASSERT_EQ(S.Spans.size(), 1u);
  EXPECT_EQ(S.Spans[0].Name, "test.phase");
}

TEST(MetricsExport, JsonlRoundTrip) {
  metrics::resetForTest();
  metrics::add(metrics::counter("test.rt_counter"), 123456789012ULL);
  metrics::record(metrics::histogram("test.rt_hist"), 7);
  metrics::record(metrics::histogram("test.rt_hist"), 900);
  { metrics::ScopedSpan Span("test.rt_span"); }
  metrics::Snapshot Before = metrics::snapshot();

  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  obs::writeMetricsJsonl(Before, F);
  std::rewind(F);
  obs::MetricsDoc Doc;
  long Parsed = 0;
  char Line[4096];
  while (std::fgets(Line, sizeof(Line), F))
    Parsed += obs::parseMetricsLine(std::string(Line), Doc);
  std::fclose(F);
  ASSERT_GT(Parsed, 0);
  EXPECT_FALSE(Doc.Binary.empty());

  uint64_t Value = counterValue(Doc.Data, "test.rt_counter");
  EXPECT_EQ(Value, 123456789012ULL);
  const metrics::HistogramSnapshot *H =
      findHistogram(Doc.Data, "test.rt_hist");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Count, 2u);
  EXPECT_EQ(H->Sum, 907u);
  EXPECT_EQ(H->Buckets[3], 1u);  // 7
  EXPECT_EQ(H->Buckets[10], 1u); // 900
  bool FoundSpan = false;
  for (const metrics::SpanSnapshot &Span : Doc.Data.Spans)
    FoundSpan |= Span.Name == "test.rt_span";
  EXPECT_TRUE(FoundSpan);
}

TEST(MetricsExport, ConcatenatedDumpsAccumulate) {
  // cat a.jsonl b.jsonl | cclstat -: repeated lines for one name sum.
  obs::MetricsDoc Doc;
  EXPECT_TRUE(obs::parseMetricsLine(
      R"({"kind":"c","name":"x.total","v":10})", Doc));
  EXPECT_TRUE(obs::parseMetricsLine(
      R"({"kind":"c","name":"x.total","v":32})", Doc));
  EXPECT_TRUE(obs::parseMetricsLine(
      R"({"kind":"h","name":"x.h","count":1,"sum":4,"b":[[3,1]]})", Doc));
  EXPECT_TRUE(obs::parseMetricsLine(
      R"({"kind":"h","name":"x.h","count":2,"sum":6,"b":[[2,2]]})", Doc));
  EXPECT_EQ(counterValue(Doc.Data, "x.total"), 42u);
  const metrics::HistogramSnapshot *H = findHistogram(Doc.Data, "x.h");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Count, 3u);
  EXPECT_EQ(H->Sum, 10u);
  EXPECT_EQ(H->Buckets[3], 1u);
  EXPECT_EQ(H->Buckets[2], 2u);
  // Unknown kinds and corrupt lines are skipped, not fatal.
  EXPECT_FALSE(obs::parseMetricsLine(
      R"({"kind":"future-kind","name":"n"})", Doc));
  EXPECT_FALSE(obs::parseMetricsLine("not json at all", Doc));
}

TEST(MetricsExport, DumpProcessMetricsEmptyPathIsNoop) {
  EXPECT_TRUE(obs::dumpProcessMetrics(""));
}

TEST(MetricsExport, ReportListsSlabAcquiresInCounterTable) {
  // Every ccmalloc run acquires slabs, sharded or not, so the counter is
  // an ordinary row of the counters table with no section of its own.
  obs::MetricsDoc Doc;
  ASSERT_TRUE(obs::parseMetricsLine(
      R"({"kind":"c","name":"ccmalloc.slab_acquires","v":7})", Doc));
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  obs::printMetricsReport(Doc, F);
  std::rewind(F);
  std::string Report;
  for (int C; (C = std::fgetc(F)) != EOF;)
    Report += char(C);
  std::fclose(F);

  size_t Table = Report.find("\ncounters:\n");
  ASSERT_NE(Table, std::string::npos) << Report;
  size_t Row = Report.find("  ccmalloc.slab_acquires ", Table);
  ASSERT_NE(Row, std::string::npos) << Report;
  std::string RowLine = Report.substr(Row, Report.find('\n', Row) - Row);
  EXPECT_EQ(RowLine.substr(RowLine.find_last_of(' ') + 1), "7") << Report;
  EXPECT_EQ(Report.find("parallel layout tools"), std::string::npos)
      << Report;
}

TEST(PerfCountersTest, EnvDisableForcesUnavailable) {
  ::setenv("CCL_PERF_DISABLE", "1", 1);
  obs::PerfCounters Counters;
  ::unsetenv("CCL_PERF_DISABLE");
  EXPECT_FALSE(Counters.available());
  EXPECT_EQ(Counters.reason(), "disabled by CCL_PERF_DISABLE");

  // start/stop must be safe no-ops; the reading reports the reason.
  Counters.start();
  obs::PerfReading R = Counters.stop();
  EXPECT_FALSE(R.Available);
  EXPECT_EQ(R.Reason, "disabled by CCL_PERF_DISABLE");
  for (unsigned I = 0; I < obs::PerfNumEvents; ++I)
    EXPECT_FALSE(R.has(I));

  // PerfScope on an unavailable group degrades the same way.
  obs::PerfReading Scoped;
  { obs::PerfScope Scope(Counters, Scoped); }
  EXPECT_FALSE(Scoped.Available);
}

TEST(PerfCountersTest, ReadingDefaultsAreInert) {
  obs::PerfReading R;
  EXPECT_FALSE(R.Available);
  EXPECT_EQ(R.runningShare(), 0.0);
  for (unsigned I = 0; I < obs::PerfNumEvents; ++I) {
    EXPECT_FALSE(R.has(I));
    EXPECT_EQ(R.Raw[I], -1);
    EXPECT_EQ(R.Scaled[I], -1);
  }
}

TEST(BenchReaderTest, ParsesCclBenchDocument) {
  const std::string Text =
      R"({"schema":"ccl-bench-v1","bench":"fig5","full":true,)"
      R"("build_type":"release","results":[)"
      R"({"name":"random tree","section":"64bit","searches":100,)"
      R"("sim_l1_misses":2048,"hw_l1d_misses":1500,)"
      R"("nanos_per_search":95.5},)"
      R"json({"name":"(hw)","metric":"hw","hw_available":"no",)json"
      "\"hw_reason\":\"a \\\"quoted\\\" reason\"}]}";
  obs::BenchDoc Doc;
  ASSERT_TRUE(obs::parseBenchJson(Text, Doc));
  EXPECT_EQ(Doc.Bench, "fig5");
  EXPECT_EQ(Doc.BuildType, "release");
  EXPECT_TRUE(Doc.Full);
  ASSERT_EQ(Doc.Results.size(), 2u);

  const obs::BenchResultRecord &R = Doc.Results[0];
  EXPECT_EQ(R.str("name"), "random tree");
  EXPECT_EQ(R.str("section"), "64bit");
  bool Ok = false;
  EXPECT_EQ(R.num("searches", &Ok), 100.0);
  EXPECT_TRUE(Ok);
  EXPECT_EQ(R.num("sim_l1_misses"), 2048.0);
  EXPECT_EQ(R.num("hw_l1d_misses"), 1500.0);
  EXPECT_DOUBLE_EQ(R.num("nanos_per_search"), 95.5);
  EXPECT_FALSE(R.has("absent_key"));
  R.num("absent_key", &Ok);
  EXPECT_FALSE(Ok);

  EXPECT_EQ(Doc.Results[1].str("hw_reason"), "a \"quoted\" reason");
}

TEST(BenchReaderTest, RejectsWrongSchema) {
  obs::BenchDoc Doc;
  EXPECT_FALSE(obs::parseBenchJson(
      R"({"schema":"ccl-bench-v2","results":[]})", Doc));
  EXPECT_FALSE(obs::parseBenchJson("[]", Doc));
  EXPECT_FALSE(obs::parseBenchJson("", Doc));
}

TEST(TraceMeta, MetaLineCarriesProducerStamp) {
  // Satellite of the TraceSink fix: meta records the producing binary
  // and git describe; readers skip unknown fields, so pre-fix dumps
  // still parse (Producer stays empty).
  obs::TraceRecord Record;
  ASSERT_TRUE(obs::parseTraceLine(
      R"({"kind":"meta","schema":"ccl-trace-v1","sample":1,)"
      R"("binary":"fig5_tree_microbenchmark","git":"abc123-dirty"})",
      Record));
  ASSERT_EQ(Record.RecordKind, obs::TraceRecord::Kind::Meta);
  EXPECT_EQ(Record.Producer, "fig5_tree_microbenchmark");
  EXPECT_EQ(Record.ProducerGit, "abc123-dirty");

  obs::TraceRecord Legacy;
  ASSERT_TRUE(obs::parseTraceLine(
      R"({"kind":"meta","schema":"ccl-trace-v1","sample":1})", Legacy));
  EXPECT_TRUE(Legacy.Producer.empty());
  EXPECT_TRUE(Legacy.ProducerGit.empty());
}

TEST(TraceMeta, MetaLineCarriesCodecStamp) {
  // Readers never gate on the schema string, so v1 dumps keep parsing,
  // and v2 dumps that still carry the retired "simd" kernel and
  // "trace_block" codec stamps parse unchanged.
  obs::TraceRecord V2;
  ASSERT_TRUE(obs::parseTraceLine(
      R"({"kind":"meta","schema":"ccl-trace-v2","l1_block":32,)"
      R"("l1_sets":512,"l2_block":128,"l2_sets":2048,"hot_sets":7,)"
      R"("sample":1,"simd":"avx2","trace_block":64,)"
      R"("binary":"fig5_tree_microbenchmark","git":"abc123"})",
      V2));
  ASSERT_EQ(V2.RecordKind, obs::TraceRecord::Kind::Meta);
  EXPECT_EQ(V2.Schema, "ccl-trace-v2");
  EXPECT_EQ(V2.Config.L1BlockBytes, 32u); // v1 fields still read.
  EXPECT_EQ(V2.Config.L2Sets, 2048u);

  obs::TraceRecord V1;
  ASSERT_TRUE(obs::parseTraceLine(
      R"({"kind":"meta","schema":"ccl-trace-v1","sample":16})", V1));
  EXPECT_EQ(V1.Schema, "ccl-trace-v1");

  obs::TraceRecord Bare; // pre-schema dumps: no stamp at all.
  ASSERT_TRUE(obs::parseTraceLine(R"({"kind":"meta","sample":1})", Bare));
  EXPECT_TRUE(Bare.Schema.empty());
}

TEST(BenchReaderTest, SkipsRetiredSimdStamp) {
  // Documents written while the header stamped the retired "simd"
  // decode kernel still parse; the unknown key is skipped.
  obs::BenchDoc Stamped;
  ASSERT_TRUE(obs::parseBenchJson(
      R"({"schema":"ccl-bench-v1","bench":"sim","full":false,)"
      R"("build_type":"bench","simd":"ssse3","results":[]})",
      Stamped));
  EXPECT_EQ(Stamped.Bench, "sim");
  EXPECT_EQ(Stamped.BuildType, "bench");

  obs::BenchDoc Legacy;
  ASSERT_TRUE(obs::parseBenchJson(
      R"({"schema":"ccl-bench-v1","bench":"sim","results":[]})", Legacy));
  EXPECT_TRUE(Legacy.BuildType.empty());
}

// Runs last (see file header): floods the counter table past
// MaxCounters, after which late registrations share the overflow slot
// and the snapshot carries the Overflowed flag. Names stay registered
// for the rest of the process, so nothing after this may register new
// counters and expect a private slot. Kept in a dedicated suite so
// gtest's suite-grouped execution order cannot hoist it ahead of the
// other suites in this file.
TEST(MetricsRegistryOverflow, FoldsIntoReservedSlot) {
  for (uint32_t I = 0; I < metrics::MaxCounters + 8; ++I)
    metrics::counter(("test.flood." + std::to_string(I)).c_str());
  metrics::Counter Late = metrics::counter("test.flood.late");
  EXPECT_EQ(Late.Id, metrics::MaxCounters - 1);
  metrics::add(Late); // Must not fault.
  EXPECT_TRUE(metrics::snapshot().Overflowed);
}
