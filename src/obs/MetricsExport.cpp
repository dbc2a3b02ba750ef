//===- obs/MetricsExport.cpp - ccl-metrics-v1 writer/reader ---------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsExport.h"

#include "obs/Export.h"
#include "support/BuildInfo.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

using namespace ccl;
using namespace ccl::obs;

namespace {

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
      Out += *P; // ccl-metrics-v1 names never need exotic escapes.
    } else {
      Out += *P;
    }
  }
  return true;
}

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
  std::fprintf(Out,
               "{\"kind\":\"meta\",\"schema\":\"ccl-metrics-v1\","
               "\"binary\":\"%s\",\"git\":\"%s\","
               "\"clock_ns\":%" PRIu64 "%s",
               jsonEscape(binaryName()).c_str(),
               jsonEscape(gitDescribe()).c_str(),
               metrics::clockNs(),
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

bool ccl::obs::parseMetricsLine(const std::string &Line, MetricsDoc &Doc) {
  std::string Kind;
  if (!getString(Line, "kind", Kind))
    return false;
  uint64_t U = 0;

  if (Kind == "meta") {
    std::string Schema;
    if (!getString(Line, "schema", Schema) || Schema != "ccl-metrics-v1")
      return false;
    getString(Line, "binary", Doc.Binary);
    getString(Line, "git", Doc.Git);
    if (getU64(Line, "overflowed", U) && U != 0)
      Doc.Data.Overflowed = true;
    if (getU64(Line, "spans_dropped", U))
      Doc.Data.SpansDropped += U;
    return true;
  }

  if (Kind == "c") {
    std::string Name;
    if (!getString(Line, "name", Name) || !getU64(Line, "v", U))
      return false;
    counterSlot(Doc, Name).Value += U;
    return true;
  }

  if (Kind == "h") {
    std::string Name;
    if (!getString(Line, "name", Name))
      return false;
    metrics::HistogramSnapshot &H = histogramSlot(Doc, Name);
    if (getU64(Line, "count", U))
      H.Count += U;
    if (getU64(Line, "sum", U))
      H.Sum += U;
    // Sparse bucket array: "b":[[B,N],...]
    const char *P = findValue(Line, "b");
    if (P && *P == '[') {
      ++P;
      while (*P == '[') {
        char *End = nullptr;
        uint64_t B = std::strtoull(P + 1, &End, 10);
        if (End == P + 1 || *End != ',')
          break;
        P = End + 1;
        uint64_t N = std::strtoull(P, &End, 10);
        if (End == P || *End != ']')
          break;
        if (B < metrics::HistogramBuckets)
          H.Buckets[B] += N;
        P = End + 1;
        if (*P == ',')
          ++P;
      }
    }
    return true;
  }

  if (Kind == "s") {
    metrics::SpanSnapshot S;
    if (!getString(Line, "name", S.Name))
      return false;
    if (getU64(Line, "t0", U))
      S.StartNs = U;
    if (getU64(Line, "dur", U))
      S.DurNs = U;
    if (getU64(Line, "tid", U))
      S.Tid = uint32_t(U);
    Doc.Data.Spans.push_back(std::move(S));
    return true;
  }

  return false;
}

long ccl::obs::readMetricsFile(std::FILE *In, MetricsDoc &Doc) {
  long Parsed = 0;
  std::string Line;
  int C;
  while ((C = std::fgetc(In)) != EOF) {
    if (C != '\n') {
      Line += char(C);
      continue;
    }
    if (!Line.empty() && parseMetricsLine(Line, Doc))
      ++Parsed;
    Line.clear();
  }
  if (!Line.empty() && parseMetricsLine(Line, Doc))
    ++Parsed;
  return Parsed;
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

void ccl::obs::writeMetricsSummaryJson(const MetricsDoc &Doc,
                                       std::FILE *Out) {
  std::fprintf(Out,
               "{\"schema\":\"ccl-metrics-summary-v1\",\"binary\":\"%s\","
               "\"git\":\"%s\",",
               jsonEscape(Doc.Binary).c_str(), jsonEscape(Doc.Git).c_str());
  std::fprintf(Out, "\"counters\":{");
  for (size_t I = 0; I < Doc.Data.Counters.size(); ++I)
    std::fprintf(Out, "%s\"%s\":%" PRIu64, I == 0 ? "" : ",",
                 jsonEscape(Doc.Data.Counters[I].Name).c_str(),
                 Doc.Data.Counters[I].Value);
  std::fprintf(Out, "},\"histograms\":[");
  for (size_t I = 0; I < Doc.Data.Histograms.size(); ++I) {
    const metrics::HistogramSnapshot &H = Doc.Data.Histograms[I];
    double Mean = H.Count ? double(H.Sum) / double(H.Count) : 0.0;
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                 ",\"mean\":%.6g,\"buckets\":[",
                 I == 0 ? "" : ",", jsonEscape(H.Name).c_str(), H.Count,
                 H.Sum, Mean);
    bool First = true;
    for (uint32_t B = 0; B < metrics::HistogramBuckets; ++B) {
      if (H.Buckets[B] == 0)
        continue;
      std::fprintf(Out, "%s[%" PRIu64 ",%" PRIu64 ",%" PRIu64 "]",
                   First ? "" : ",", bucketLow(B), bucketHigh(B),
                   H.Buckets[B]);
      First = false;
    }
    std::fprintf(Out, "]}");
  }
  std::fprintf(Out, "],\"spans\":[");
  for (size_t I = 0; I < Doc.Data.Spans.size(); ++I) {
    const metrics::SpanSnapshot &S = Doc.Data.Spans[I];
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"t0_ns\":%" PRIu64 ",\"dur_ns\":%" PRIu64
                 ",\"tid\":%" PRIu32 "}",
                 I == 0 ? "" : ",", jsonEscape(S.Name).c_str(), S.StartNs,
                 S.DurNs, S.Tid);
  }
  std::fprintf(Out, "]}\n");
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
