//===- tools/cclstat.cpp - Render telemetry trace dumps -------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// cclstat: reconstructs a per-structure cache profile from a
// ccl-trace-v1 or ccl-trace-v2 JSONL dump (as written by TraceSink /
// `fig5_tree_microbenchmark --trace`), without re-running the
// simulation. v2 meta lines additionally stamp the trace codec's
// records per block, rendered in the text header and the --json
// document's "trace_codec" object.
//
//   cclstat trace.jsonl                 # text report
//   cclstat --json - trace.jsonl        # ccl-profile-v1 JSON to stdout
//   cclstat --csv profile.csv trace.jsonl
//   cclstat --chrome trace.chrome.json trace.jsonl   # chrome://tracing
//
// The input format is auto-detected from the first line: a
// ccl-metrics-v1 dump (as written by `--metrics <path>` on the bench
// binaries) renders the runtime-metrics report instead — --json then
// re-renders as ccl-metrics-summary-v1, --chrome as span trace events.
//
//   cclstat --bench bench.json          # sim-vs-hardware divergence
//                                       # table from a ccl-bench-v1
//                                       # document (fig5/fig6/fig7 --hw)
//
// Reading from stdin: use "-" as the trace path.
//
//===----------------------------------------------------------------------===//

#include "obs/Attribution.h"
#include "obs/BenchReader.h"
#include "obs/Export.h"
#include "obs/FieldProfile.h"
#include "obs/MetricsExport.h"
#include "obs/Region.h"
#include "obs/TraceReader.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace ccl::obs;
using ccl::TablePrinter;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] <trace.jsonl | ->\n"
      "       %s --bench <bench.json | ->\n"
      "Renders a ccl-trace-v1/v2 JSONL dump (see TraceSink) as a profile.\n"
      "ccl-metrics-v1 dumps (bench --metrics) are auto-detected and\n"
      "render the runtime-metrics report instead; ccl-fields-v1 dumps\n"
      "(ccllint --fields-out, fig5 --fields) render the per-field\n"
      "affinity table.\n"
      "  --json <path>    write ccl-profile-v1 JSON ('-' = stdout)\n"
      "                   (metrics input: ccl-metrics-summary-v1)\n"
      "  --csv <path>     write the per-region profile as CSV\n"
      "  --chrome <path>  convert events to Chrome trace format\n"
      "  --bench <path>   ccl-bench-v1 document: print the simulated-\n"
      "                   vs-hardware miss divergence table (--hw runs)\n"
      "  --quiet          suppress the text report\n",
      Prog, Prog);
  return 2;
}

/// Reads one (possibly long) line including its newline; false at EOF
/// with nothing read.
bool readLine(std::FILE *In, std::string &Out) {
  Out.clear();
  char Buf[4096];
  while (std::fgets(Buf, sizeof(Buf), In)) {
    Out += Buf;
    if (!Out.empty() && Out.back() == '\n')
      return true;
  }
  return !Out.empty();
}

/// A compact per-row label for a bench result: the distinguishing
/// sweep fields the figure benches emit.
std::string benchRowLabel(const BenchResultRecord &R) {
  std::string Label;
  for (const char *Key : {"section", "layout", "variant", "strategy"}) {
    std::string V = R.str(Key);
    if (!V.empty())
      Label += (Label.empty() ? "" : " ") + V;
  }
  if (R.has("searches")) {
    bool Ok = false;
    double N = R.num("searches", &Ok);
    if (Ok)
      Label += (Label.empty() ? "n=" : " n=") +
               TablePrinter::fmtInt(uint64_t(N));
  }
  return Label;
}

/// Sim-vs-hardware divergence: pairs each result's simulated miss
/// counts with the hardware counts recorded around the corresponding
/// native run (fig5/fig6/fig7 --hw). The two columns deliberately do
/// not measure the same execution — the simulator replays a recorded
/// stream through the paper's memory system, the hardware counters
/// watch the native run on the host — so the ratio is a model-fidelity
/// signal, not an error bar.
int printBenchDivergence(const std::string &Path) {
  BenchDoc Doc;
  if (!readBenchFile(Path, Doc)) {
    std::fprintf(stderr,
                 "cclstat: %s is not a readable ccl-bench-v1 document\n",
                 Path.c_str());
    return 1;
  }
  std::printf("%s: bench %s (%s%s), %zu results\n", Path.c_str(),
              Doc.Bench.c_str(), Doc.BuildType.c_str(),
              Doc.Full ? ", full scale" : "", Doc.Results.size());

  // The "(hw)" meta record reports counter availability on the
  // producing host.
  for (const BenchResultRecord &R : Doc.Results) {
    if (R.str("metric") != "hw")
      continue;
    if (R.str("hw_available") == "yes") {
      std::printf("hw: available\n");
    } else {
      std::printf("hw: unavailable (%s)\n",
                  R.str("hw_reason", "no reason recorded").c_str());
    }
  }

  TablePrinter Table({"name", "cell", "sim L1", "hw l1d", "L1 ratio",
                      "sim L2", "hw llc", "L2 ratio", "sim TLB",
                      "hw dtlb", "TLB ratio"});
  size_t Paired = 0;
  auto Ratio = [](double Sim, double HwV) {
    return HwV > 0 ? TablePrinter::fmt(Sim / HwV, 2) + "x"
                   : std::string("-");
  };
  for (const BenchResultRecord &R : Doc.Results) {
    if (!R.has("sim_l1_misses") || !R.has("hw_l1d_misses"))
      continue;
    double SimL1 = R.num("sim_l1_misses");
    double SimL2 = R.num("sim_l2_misses");
    double SimTlb = R.num("sim_tlb_misses");
    double HwL1 = R.num("hw_l1d_misses");
    double HwLlc = R.num("hw_llc_misses");
    double HwTlb = R.num("hw_dtlb_misses");
    Table.addRow({R.str("name"), benchRowLabel(R),
                  TablePrinter::fmtInt(uint64_t(SimL1)),
                  TablePrinter::fmtInt(uint64_t(HwL1)),
                  Ratio(SimL1, HwL1),
                  TablePrinter::fmtInt(uint64_t(SimL2)),
                  TablePrinter::fmtInt(uint64_t(HwLlc)),
                  Ratio(SimL2, HwLlc),
                  TablePrinter::fmtInt(uint64_t(SimTlb)),
                  TablePrinter::fmtInt(uint64_t(HwTlb)),
                  Ratio(SimTlb, HwTlb)});
    ++Paired;
  }
  if (Paired == 0) {
    std::printf("no results carry paired simulated+hardware misses "
                "(rerun the bench with --hw on a perf-capable host)\n");
    return 0;
  }
  std::printf("\nSimulated vs hardware misses (ratio = sim/hw; the "
              "simulator models the paper's\nmemory system, not the "
              "host, so expect systematic offsets):\n");
  Table.print();
  return 0;
}

/// Per-type field-affinity tables from a ccl-fields-v1 dump (as written
/// by `ccllint --fields-out` / `fig5_tree_microbenchmark --fields`).
/// The "refs/visit" column normalizes per element against the hottest
/// field so hot/cold structure is visible at a glance.
void printFieldsReport(const FieldsDoc &Doc) {
  for (const FieldsTypeDoc &T : Doc.Types) {
    std::printf("%s::%s: %u B (align %u), %s objects, %s attributed "
                "accesses\n",
                T.Module.c_str(), T.Name.c_str(), T.Size, T.Align,
                TablePrinter::fmtInt(T.Objects).c_str(),
                TablePrinter::fmtInt(T.Accesses).c_str());
    if (T.PaddingBytesTouched)
      std::printf("  (%s bytes landed in padding holes)\n",
                  TablePrinter::fmtInt(T.PaddingBytesTouched).c_str());
    // Per-element visit normalizer: the hottest field's refs per
    // element (same convention as ccl-lint's affinity model).
    double Visits = 0;
    for (const FieldsFieldDoc &F : T.Fields)
      Visits = std::max(Visits, double(F.Counters.refs()) /
                                    std::max(1u, F.ElemCount));
    TablePrinter Table({"field", "off", "size", "reads", "writes",
                        "L1 miss", "L2 miss", "bytes/ref", "refs/visit"});
    for (const FieldsFieldDoc &F : T.Fields) {
      uint64_t Refs = F.Counters.refs();
      Table.addRow(
          {F.Name, TablePrinter::fmtInt(F.Offset),
           TablePrinter::fmtInt(F.Size),
           TablePrinter::fmtInt(F.Counters.Reads),
           TablePrinter::fmtInt(F.Counters.Writes),
           TablePrinter::fmtInt(F.Counters.L1Misses),
           TablePrinter::fmtInt(F.Counters.L2Misses),
           Refs ? TablePrinter::fmt(double(F.Counters.BytesAccessed) / Refs,
                                    1)
                : std::string("-"),
           Visits > 0 ? TablePrinter::fmt(double(Refs) / Visits, 3)
                      : std::string("-")});
    }
    Table.print();
    std::printf("\n");
  }
}

std::FILE *openOut(const std::string &Path) {
  if (Path == "-")
    return stdout;
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    std::fprintf(stderr, "cclstat: cannot open %s for writing\n",
                 Path.c_str());
  return Out;
}

void closeOut(std::FILE *Out) {
  if (Out && Out != stdout)
    std::fclose(Out);
}

/// Streams Chrome trace-event JSON ("X" complete events for accesses on
/// one timeline row per region; instant events for evictions and
/// prefetches). Cycle counts are reported as microseconds, so one
/// trace-viewer microsecond = one simulated cycle.
class ChromeWriter {
public:
  explicit ChromeWriter(std::FILE *Out) : Out(Out) {
    std::fprintf(Out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  }

  void nameRow(uint32_t Region, const std::string &Label) {
    emitComma();
    std::fprintf(Out,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%" PRIu32 ",\"args\":{\"name\":\"%s\"}}",
                 Region, jsonEscape(Label).c_str());
  }

  void access(const AccessEvent &E, uint32_t Region) {
    emitComma();
    uint64_t Start = E.Now >= E.Cycles ? E.Now - E.Cycles : 0;
    std::fprintf(Out,
                 "{\"name\":\"%s\",\"cat\":\"access\",\"ph\":\"X\","
                 "\"ts\":%" PRIu64 ",\"dur\":%" PRIu32
                 ",\"pid\":0,\"tid\":%" PRIu32
                 ",\"args\":{\"va\":%" PRIu64 ",\"pa\":%" PRIu64
                 ",\"size\":%" PRIu32 ",\"write\":%d,\"tlb_miss\":%d}}",
                 accessLevelName(E.Level), Start, E.Cycles, Region, E.VAddr,
                 E.Mapped, E.Size, E.IsWrite ? 1 : 0, E.TlbMiss ? 1 : 0);
  }

  void evict(const EvictEvent &E) {
    emitComma();
    std::fprintf(Out,
                 "{\"name\":\"evict L%d%s\",\"cat\":\"evict\",\"ph\":\"i\","
                 "\"s\":\"g\",\"ts\":%" PRIu64 ",\"pid\":0,\"tid\":0,"
                 "\"args\":{\"pa\":%" PRIu64 "}}",
                 int(E.Level), E.Writeback ? " (wb)" : "", E.Now,
                 E.MappedBlockAddr);
  }

  void prefetch(const PrefetchEvent &E) {
    emitComma();
    std::fprintf(Out,
                 "{\"name\":\"%s prefetch\",\"cat\":\"prefetch\","
                 "\"ph\":\"i\",\"s\":\"g\",\"ts\":%" PRIu64
                 ",\"pid\":0,\"tid\":0,\"args\":{\"pa\":%" PRIu64 "}}",
                 E.Software ? "sw" : "hw", E.Now, E.Mapped);
  }

  void finish() { std::fprintf(Out, "]}\n"); }

private:
  void emitComma() {
    if (!First)
      std::fprintf(Out, ",");
    First = false;
  }

  std::FILE *Out;
  bool First = true;
};

} // namespace

int main(int Argc, char **Argv) {
  std::string TracePath, JsonPath, CsvPath, ChromePath, BenchPath;
  bool Quiet = false;
  for (int I = 1; I < Argc; ++I) {
    auto takeValue = [&](std::string &Slot) {
      if (I + 1 >= Argc)
        return false;
      Slot = Argv[++I];
      return true;
    };
    if (std::strcmp(Argv[I], "--json") == 0) {
      if (!takeValue(JsonPath))
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--csv") == 0) {
      if (!takeValue(CsvPath))
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--chrome") == 0) {
      if (!takeValue(ChromePath))
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--bench") == 0) {
      if (!takeValue(BenchPath))
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--quiet") == 0) {
      Quiet = true;
    } else if (std::strcmp(Argv[I], "--help") == 0 ||
               std::strcmp(Argv[I], "-h") == 0) {
      usage(Argv[0]);
      return 0;
    } else if (Argv[I][0] == '-' && std::strcmp(Argv[I], "-") != 0) {
      std::fprintf(stderr, "cclstat: unknown option %s\n", Argv[I]);
      return usage(Argv[0]);
    } else if (TracePath.empty()) {
      TracePath = Argv[I];
    } else {
      return usage(Argv[0]);
    }
  }
  if (!BenchPath.empty())
    return printBenchDivergence(BenchPath);
  if (TracePath.empty())
    return usage(Argv[0]);

  std::FILE *In =
      TracePath == "-" ? stdin : std::fopen(TracePath.c_str(), "r");
  if (!In) {
    std::fprintf(stderr, "cclstat: cannot open %s\n", TracePath.c_str());
    return 1;
  }

  // Auto-detect the dump flavour from the first line so `--metrics`
  // output renders without a separate subcommand. The consumed line is
  // fed to whichever reader wins.
  std::string FirstLine;
  bool HasFirst = readLine(In, FirstLine);
  if (HasFirst && FirstLine.find("\"ccl-fields-v1\"") != std::string::npos) {
    FieldsDoc Doc;
    long Parsed = parseFieldsLine(FirstLine, Doc) ? 1 : 0;
    std::string Line;
    while (readLine(In, Line))
      if (parseFieldsLine(Line, Doc))
        ++Parsed;
    if (In != stdin)
      std::fclose(In);
    if (Parsed <= 0 || Doc.Types.empty()) {
      std::fprintf(stderr, "cclstat: no parseable records in %s\n",
                   TracePath.c_str());
      return 1;
    }
    if (!Quiet) {
      std::printf("%s: %ld field-profile records", TracePath.c_str(),
                  Parsed);
      if (!Doc.Binary.empty())
        std::printf(" from %s (%s)", Doc.Binary.c_str(), Doc.Git.c_str());
      std::printf("\n");
      if (Doc.Attributed + Doc.Unattributed > 0)
        std::printf("attributed %s / unattributed %s events\n",
                    TablePrinter::fmtInt(Doc.Attributed).c_str(),
                    TablePrinter::fmtInt(Doc.Unattributed).c_str());
      std::printf("\n");
      printFieldsReport(Doc);
    }
    if (!JsonPath.empty() || !CsvPath.empty() || !ChromePath.empty())
      std::fprintf(stderr, "cclstat: --json/--csv/--chrome are not "
                           "supported for field-profile dumps\n");
    return 0;
  }
  if (HasFirst && FirstLine.find("\"ccl-metrics-v1\"") != std::string::npos) {
    MetricsDoc Doc;
    long Parsed = parseMetricsLine(FirstLine, Doc) ? 1 : 0;
    Parsed += readMetricsFile(In, Doc);
    if (In != stdin)
      std::fclose(In);
    if (Parsed <= 0) {
      std::fprintf(stderr, "cclstat: no parseable records in %s\n",
                   TracePath.c_str());
      return 1;
    }
    if (!Quiet) {
      std::printf("%s: %ld metrics records", TracePath.c_str(), Parsed);
      if (!Doc.Binary.empty())
        std::printf(" from %s (%s)", Doc.Binary.c_str(), Doc.Git.c_str());
      std::printf("\n\n");
      printMetricsReport(Doc, stdout);
    }
    if (!CsvPath.empty())
      std::fprintf(stderr,
                   "cclstat: --csv is not supported for metrics dumps\n");
    if (!JsonPath.empty()) {
      std::FILE *Out = openOut(JsonPath);
      if (!Out)
        return 1;
      writeMetricsSummaryJson(Doc, Out);
      closeOut(Out);
    }
    if (!ChromePath.empty()) {
      std::FILE *Out = openOut(ChromePath);
      if (!Out)
        return 1;
      writeMetricsChrome(Doc, Out);
      closeOut(Out);
    }
    return 0;
  }

  std::FILE *ChromeFile = nullptr;
  std::unique_ptr<ChromeWriter> Chrome;
  if (!ChromePath.empty()) {
    ChromeFile = openOut(ChromePath);
    if (!ChromeFile)
      return 1;
    Chrome = std::make_unique<ChromeWriter>(ChromeFile);
  }

  // The registry is rebuilt from the dump's region records; trace region
  // ids are remapped through define() so the sink sees dense local ids.
  RegionRegistry Registry;
  std::unique_ptr<AttributionSink> Sink;
  std::vector<uint32_t> IdMap = {RegionRegistry::Unknown};
  uint64_t SampleInterval = 1;
  // Codec stamps from the meta line: v2 dumps carry the schema string
  // and the trace codec's records per block; v1 and pre-stamp dumps
  // leave the fields empty and nothing renders.
  TraceCodecInfo Codec;
  auto localId = [&](uint32_t TraceId) {
    return TraceId < IdMap.size() ? IdMap[TraceId] : RegionRegistry::Unknown;
  };
  auto ensureSink = [&] {
    if (!Sink)
      Sink = std::make_unique<AttributionSink>(Registry,
                                               AttributionConfig());
  };

  auto HandleRecord = [&](const TraceRecord &Record) {
    switch (Record.RecordKind) {
    case TraceRecord::Kind::Meta:
      if (!Sink)
        Sink = std::make_unique<AttributionSink>(Registry, Record.Config);
      SampleInterval = Record.SampleInterval;
      Codec.Schema = Record.Schema;
      Codec.TraceBlock = Record.TraceBlock;
      break;
    case TraceRecord::Kind::Region: {
      uint32_t Local = Registry.define(Record.Region);
      if (Record.RegionId >= IdMap.size())
        IdMap.resize(Record.RegionId + 1, RegionRegistry::Unknown);
      IdMap[Record.RegionId] = Local;
      if (Chrome) {
        const RegionInfo &Info = Registry.info(Local);
        Chrome->nameRow(Local, Info.ColorClass.empty()
                                   ? Info.Name
                                   : Info.Name + " [" + Info.ColorClass +
                                         "]");
      }
      break;
    }
    case TraceRecord::Kind::Access:
      ensureSink();
      Sink->record(Record.Access, localId(Record.RegionId));
      if (Chrome)
        Chrome->access(Record.Access, localId(Record.RegionId));
      break;
    case TraceRecord::Kind::Evict:
      ensureSink();
      Sink->recordEvict(Record.Evict);
      if (Chrome)
        Chrome->evict(Record.Evict);
      break;
    case TraceRecord::Kind::Prefetch:
      ensureSink();
      Sink->onPrefetch(Record.Prefetch);
      if (Chrome)
        Chrome->prefetch(Record.Prefetch);
      break;
    }
  };
  long Parsed = 0;
  if (HasFirst) {
    TraceRecord First;
    if (parseTraceLine(FirstLine, First)) {
      HandleRecord(First);
      ++Parsed;
    }
  }
  Parsed += readTraceFile(In, HandleRecord);
  if (In != stdin)
    std::fclose(In);
  if (Chrome) {
    Chrome->finish();
    closeOut(ChromeFile);
  }
  if (Parsed <= 0) {
    std::fprintf(stderr, "cclstat: no parseable records in %s\n",
                 TracePath.c_str());
    return 1;
  }
  ensureSink();
  Sink->finalize();

  if (!Quiet) {
    std::printf("%s: %ld records", TracePath.c_str(), Parsed);
    if (SampleInterval > 1)
      std::printf(" (1-in-%" PRIu64
                  " sampled; counts reflect sampled events only)",
                  SampleInterval);
    if (Codec.any()) {
      std::printf(" [%s", Codec.Schema.empty() ? "ccl-trace-v1"
                                               : Codec.Schema.c_str());
      if (Codec.TraceBlock != 0)
        std::printf(", block %" PRIu64, Codec.TraceBlock);
      std::printf("]");
    }
    std::printf("\n\n");
    Sink->printReport();
  }
  if (!JsonPath.empty()) {
    if (std::FILE *Out = openOut(JsonPath)) {
      writeProfileJson(*Sink, Out, &Codec);
      closeOut(Out);
    } else {
      return 1;
    }
  }
  if (!CsvPath.empty()) {
    if (std::FILE *Out = openOut(CsvPath)) {
      writeProfileCsv(*Sink, Out);
      closeOut(Out);
    } else {
      return 1;
    }
  }
  return 0;
}
