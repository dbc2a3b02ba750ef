//===- obs/MetricsExport.cpp - ccl-metrics-v1 writer/reader ---------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsExport.h"

#include <algorithm>
#include <cinttypes>

using namespace ccl;
using namespace ccl::obs;

namespace {

metrics::CounterSnapshot &counterSlot(MetricsDoc &Doc,
                                      const std::string &Name) {
  for (metrics::CounterSnapshot &C : Doc.Data.Counters)
    if (C.Name == Name)
      return C;
  Doc.Data.Counters.emplace_back();
  Doc.Data.Counters.back().Name = Name;
  return Doc.Data.Counters.back();
}

metrics::HistogramSnapshot &histogramSlot(MetricsDoc &Doc,
                                          const std::string &Name) {
  for (metrics::HistogramSnapshot &H : Doc.Data.Histograms)
    if (H.Name == Name)
      return H;
  Doc.Data.Histograms.emplace_back();
  Doc.Data.Histograms.back().Name = Name;
  return Doc.Data.Histograms.back();
}

/// Lower bound of histogram bucket B (bit_width == B).
uint64_t bucketLow(uint32_t B) {
  return B == 0 ? 0 : (uint64_t(1) << (B - 1));
}

/// Inclusive upper bound of bucket B.
uint64_t bucketHigh(uint32_t B) {
  if (B == 0)
    return 0;
  if (B >= 64)
    return UINT64_MAX;
  return (uint64_t(1) << B) - 1;
}

} // namespace

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

bool ccl::obs::parseMetricsLine(JsonObject &Line, MetricsDoc &Doc) {
  std::string Kind;
  Line.need("kind", Kind);
  if (!Line.ok())
    return false;

  if (Kind == "meta") {
    std::string Schema;
    bool Overflowed = false;
    uint64_t Dropped = 0;
    readMeta(Line, Schema, Doc.Binary, Doc.Git);
    Line.get("overflowed", Overflowed);
    Line.get("spans_dropped", Dropped);
    Doc.Data.Overflowed |= Overflowed;
    Doc.Data.SpansDropped += Dropped;
    return Line.ok();
  }

  if (Kind == "c") {
    std::string Name;
    uint64_t Value = 0;
    Line.need("name", Name);
    Line.need("v", Value);
    if (!Line.ok())
      return false;
    counterSlot(Doc, Name).Value += Value;
    return true;
  }

  if (Kind == "h") {
    std::string Name;
    uint64_t Count = 0, Sum = 0;
    Line.need("name", Name);
    Line.get("count", Count);
    Line.get("sum", Sum);
    if (!Line.ok())
      return false;
    metrics::HistogramSnapshot &H = histogramSlot(Doc, Name);
    H.Count += Count;
    H.Sum += Sum;
    // Sparse bucket array: "b":[[B,N],...].
    const JsonValue *B = Line.find("b");
    if (!B)
      return true;
    bool Ok = B->Kind == JsonValue::Type::Array;
    for (const JsonValue &Pair : B->Items) {
      uint64_t Bucket = 0, N = 0;
      Ok = Ok && Pair.Kind == JsonValue::Type::Array &&
           Pair.Items.size() == 2 &&
           jsonUnsigned(Pair.Items[0], metrics::HistogramBuckets - 1,
                        Bucket) &&
           jsonUnsigned(Pair.Items[1], UINT64_MAX, N);
      if (Ok)
        H.Buckets[Bucket] += N;
    }
    return Ok || Line.fail("\"b\": expected [bucket, count] pairs");
  }

  if (Kind == "s") {
    metrics::SpanSnapshot S;
    Line.need("name", S.Name);
    Line.get("t0", S.StartNs);
    Line.get("dur", S.DurNs);
    Line.get("tid", S.Tid);
    if (!Line.ok())
      return false;
    Doc.Data.Spans.push_back(std::move(S));
    return true;
  }

  return false;
}

bool ccl::obs::parseMetricsLine(const std::string &Line, MetricsDoc &Doc) {
  return mapJsonLine(
      Line, [&](JsonObject &Object) { return parseMetricsLine(Object, Doc); });
}

void ccl::obs::printMetricsReport(const MetricsDoc &Doc, std::FILE *Out) {
  if (!Doc.Binary.empty() || !Doc.Git.empty())
    std::fprintf(Out, "producer: %s (%s)\n", Doc.Binary.c_str(),
                 Doc.Git.c_str());
  if (Doc.Data.Overflowed)
    std::fprintf(Out, "WARNING: metric registrations overflowed; the "
                      "overflow slot absorbed late registrations\n");
  if (Doc.Data.SpansDropped != 0)
    std::fprintf(Out,
                 "WARNING: %" PRIu64 " span(s) dropped (fixed span "
                 "buffer filled)\n",
                 Doc.Data.SpansDropped);

  std::fprintf(Out, "\ncounters:\n");
  size_t Width = 8;
  for (const metrics::CounterSnapshot &C : Doc.Data.Counters)
    Width = std::max(Width, C.Name.size());
  for (const metrics::CounterSnapshot &C : Doc.Data.Counters)
    std::fprintf(Out, "  %-*s %12" PRIu64 "\n", int(Width), C.Name.c_str(),
                 C.Value);
  if (Doc.Data.Counters.empty())
    std::fprintf(Out, "  (none)\n");

  std::fprintf(Out, "\nhistograms (power-of-two buckets):\n");
  for (const metrics::HistogramSnapshot &H : Doc.Data.Histograms) {
    double Mean = H.Count ? double(H.Sum) / double(H.Count) : 0.0;
    std::fprintf(Out,
                 "  %s: count %" PRIu64 ", sum %" PRIu64 ", mean %.1f\n",
                 H.Name.c_str(), H.Count, H.Sum, Mean);
    uint32_t Used = H.usedBuckets();
    uint64_t MaxBucket = 0;
    for (uint32_t B = 0; B < Used; ++B)
      MaxBucket = std::max(MaxBucket, H.Buckets[B]);
    for (uint32_t B = 0; B < Used; ++B) {
      if (H.Buckets[B] == 0)
        continue;
      int Bar =
          MaxBucket ? int(1 + 39 * H.Buckets[B] / MaxBucket) : 0;
      std::fprintf(Out, "    [%20" PRIu64 ", %20" PRIu64 "] %10" PRIu64
                        " %.*s\n",
                   bucketLow(B), bucketHigh(B), H.Buckets[B], Bar,
                   "########################################");
    }
  }
  if (Doc.Data.Histograms.empty())
    std::fprintf(Out, "  (none)\n");

  if (!Doc.Data.Spans.empty()) {
    std::fprintf(Out, "\nspans:\n");
    for (const metrics::SpanSnapshot &S : Doc.Data.Spans)
      std::fprintf(Out,
                   "  %-24s tid %" PRIu32 "  start %10.3f ms  dur %10.3f "
                   "ms\n",
                   S.Name.c_str(), S.Tid, double(S.StartNs) / 1e6,
                   double(S.DurNs) / 1e6);
  }
}

void ccl::obs::writeMetricsChrome(const MetricsDoc &Doc, std::FILE *Out) {
  std::fprintf(Out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool First = true;
  for (const metrics::SpanSnapshot &S : Doc.Data.Spans) {
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%" PRIu32 "}",
                 First ? "" : ",", jsonEscape(S.Name).c_str(),
                 double(S.StartNs) / 1e3, double(S.DurNs) / 1e3, S.Tid);
    First = false;
  }
  std::fprintf(Out, "]}\n");
}
