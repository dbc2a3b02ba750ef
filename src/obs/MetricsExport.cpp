//===- obs/MetricsExport.cpp - ccl-metrics-v1 writer ----------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsExport.h"

#include <cinttypes>

using namespace ccl;
using namespace ccl::obs;

void ccl::obs::writeMetricsJsonl(const metrics::Snapshot &Snapshot,
                                 std::FILE *Out) {
  std::fprintf(Out, "{\"kind\":\"meta\",");
  writeMeta(Out, "ccl-metrics-v1");
  std::fprintf(Out, ",\"clock_ns\":%" PRIu64 "%s", metrics::clockNs(),
               Snapshot.Overflowed ? ",\"overflowed\":1" : "");
  if (Snapshot.SpansDropped != 0)
    std::fprintf(Out, ",\"spans_dropped\":%" PRIu64, Snapshot.SpansDropped);
  std::fprintf(Out, "}\n");
  for (const metrics::CounterSnapshot &C : Snapshot.Counters)
    std::fprintf(Out, "{\"kind\":\"c\",\"name\":\"%s\",\"v\":%" PRIu64 "}\n",
                 jsonEscape(C.Name).c_str(), C.Value);
  for (const metrics::HistogramSnapshot &H : Snapshot.Histograms) {
    std::fprintf(Out,
                 "{\"kind\":\"h\",\"name\":\"%s\",\"count\":%" PRIu64
                 ",\"sum\":%" PRIu64 ",\"b\":[",
                 jsonEscape(H.Name).c_str(), H.Count, H.Sum);
    bool First = true;
    for (uint32_t B = 0; B < metrics::HistogramBuckets; ++B) {
      if (H.Buckets[B] == 0)
        continue;
      std::fprintf(Out, "%s[%" PRIu32 ",%" PRIu64 "]", First ? "" : ",", B,
                   H.Buckets[B]);
      First = false;
    }
    std::fprintf(Out, "]}\n");
  }
  for (const metrics::SpanSnapshot &S : Snapshot.Spans)
    std::fprintf(Out,
                 "{\"kind\":\"s\",\"name\":\"%s\",\"t0\":%" PRIu64
                 ",\"dur\":%" PRIu64 ",\"tid\":%" PRIu32 "}\n",
                 jsonEscape(S.Name).c_str(), S.StartNs, S.DurNs, S.Tid);
}

bool ccl::obs::dumpProcessMetrics(const std::string &Path) {
  if (Path.empty())
    return true;
  std::FILE *Out = Path == "-" ? stdout : std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "ccl-metrics: cannot open %s for writing\n",
                 Path.c_str());
    return false;
  }
  writeMetricsJsonl(metrics::snapshot(), Out);
  if (Out != stdout)
    std::fclose(Out);
  else
    std::fflush(Out);
  return true;
}
