//===- tests/metrics_test.cpp - Metrics registry and exporters ------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Covers the support-layer metrics registry (registration idempotence,
// concurrent adds under SweepRunner, heaps publishing their path counts
// from sweep workers, histogram bucket edges, spans) and the lines the
// ccl-metrics-v1 writer prints. tools_malformed_test reads them back
// through scripts/cclstat.py.
//
// The registry is process-global and names are never unregistered, so
// the overflow test (which exhausts the counter table) lives in its own
// suite declared last in this file — gtest runs suites in order of
// first declaration, so a same-suite test would be hoisted ahead of the
// later suites and poison their registrations.
//
//===----------------------------------------------------------------------===//

#include "heap/CcHeap.h"
#include "obs/MetricsExport.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/SweepRunner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
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

TEST(MetricsExport, JsonlWritesExactLines) {
  metrics::resetForTest();
  metrics::add(metrics::counter("test.rt_counter"), 123456789012ULL);
  metrics::record(metrics::histogram("test.rt_hist"), 7);
  metrics::record(metrics::histogram("test.rt_hist"), 900);
  metrics::recordSpan("test.rt_span", 1000, 52000);
  metrics::Snapshot Snap = metrics::snapshot();
  ASSERT_EQ(Snap.Spans.size(), 1u);

  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  obs::writeMetricsJsonl(Snap, F);
  std::rewind(F);
  std::vector<std::string> Lines;
  char Line[4096];
  while (std::fgets(Line, sizeof(Line), F))
    Lines.push_back(Line);
  std::fclose(F);

  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Lines[0].rfind(R"({"kind":"meta","schema":"ccl-metrics-v1",)", 0),
            0u)
      << Lines[0];
  auto Wrote = [&](const std::string &Expected) {
    return std::count(Lines.begin(), Lines.end(), Expected + "\n") == 1;
  };
  EXPECT_TRUE(
      Wrote(R"({"kind":"c","name":"test.rt_counter","v":123456789012})"));
  // Sparse buckets: 7 has bit width 3, 900 bit width 10.
  EXPECT_TRUE(Wrote(R"({"kind":"h","name":"test.rt_hist","count":2,"sum":907,)"
                    R"("b":[[3,1],[10,1]]})"));
  EXPECT_TRUE(Wrote(R"({"kind":"s","name":"test.rt_span","t0":1000,)"
                    R"("dur":52000,"tid":)" +
                    std::to_string(Snap.Spans[0].Tid) + "}"));
}

TEST(MetricsExport, DumpProcessMetricsEmptyPathIsNoop) {
  EXPECT_TRUE(obs::dumpProcessMetrics(""));
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
