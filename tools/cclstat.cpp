//===- tools/cclstat.cpp - Render ccl-* telemetry artifacts ---------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// cclstat: renders a ccl-* artifact without re-running the simulation.
// Every input is read through one JSONL loop (obs/Json.h), and the first
// line's "schema" picks the format from one table (Formats below): a
// ccl-trace-v1/v2 dump (TraceSink; or no schema) renders the
// per-structure cache profile, ccl-metrics-v1 the runtime-metrics
// report, and ccl-bench-v1 the simulated-vs-hardware miss divergence
// table.
//
//   cclstat trace.jsonl                 # text report
//   cclstat --json - trace.jsonl        # ccl-profile-v1 JSON to stdout
//   cclstat --csv profile.csv trace.jsonl
//   cclstat --chrome trace.chrome.json trace.jsonl   # chrome://tracing
//
// Reading from stdin: use "-" as the path. A malformed line, an unknown
// schema, or an output option the format lacks exits 1 with
// "<path>: line N: <reason>" and renders nothing.
//
//===----------------------------------------------------------------------===//

#include "obs/Attribution.h"
#include "obs/BenchReader.h"
#include "obs/Export.h"
#include "obs/Json.h"
#include "obs/MetricsExport.h"
#include "obs/Region.h"
#include "obs/TraceReader.h"
#include "support/TablePrinter.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

using namespace ccl::obs;
using ccl::TablePrinter;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] <ccl-* artifact | ->\n"
      "Renders a ccl-trace-v1/v2, ccl-metrics-v1 or ccl-bench-v1\n"
      "artifact; its first line's schema picks the report.\n"
      "  --json <path>    write ccl-profile-v1 JSON ('-' = stdout)\n"
      "                   (metrics input: ccl-metrics-summary-v1)\n"
      "  --csv <path>     write the per-region profile as CSV\n"
      "  --chrome <path>  convert events (metrics: spans) to Chrome trace\n"
      "  --quiet          suppress the text report\n",
      Prog);
  return 2;
}

struct Options {
  std::string Path, Json, Csv, Chrome;
  bool Quiet = false;
  /// Opened before reading, since trace events stream into it.
  std::FILE *ChromeOut = nullptr;
};

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

/// Writes one output file with \p Write; false if it cannot be opened.
template <typename Fn> bool writeOut(const std::string &Path, Fn &&Write) {
  std::FILE *Out = openOut(Path);
  if (Out)
    Write(Out);
  closeOut(Out);
  return Out != nullptr;
}

/// The first report line: "<path>: N <what>[ from <binary> (<git>)]".
void printSource(const Options &Opts, long Records, const char *What,
                 const std::string &Binary, const std::string &Git) {
  std::printf("%s: %ld %s", Opts.Path.c_str(), Records, What);
  if (!Binary.empty())
    std::printf(" from %s (%s)", Binary.c_str(), Git.c_str());
}

/// One input format: folds each line into its document while reading,
/// then renders the document once the whole input has been accepted.
class Input {
public:
  explicit Input(const Options &Opts) : Opts(Opts) {}
  virtual ~Input() = default;
  /// Whether \p Line was a record; rejects it through Line.fail().
  virtual bool add(JsonObject &Line) = 0;
  /// Returns the exit status.
  virtual int render(long Records) = 0;

protected:
  const Options &Opts;
};

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

/// A ccl-trace dump, rebuilt into a per-structure profile.
class TraceInput final : public Input {
public:
  explicit TraceInput(const Options &Opts) : Input(Opts) {
    if (Opts.ChromeOut)
      Chrome.emplace(Opts.ChromeOut);
  }

  bool add(JsonObject &Line) override {
    TraceRecord Record;
    if (!parseTraceLine(Line, Record))
      return false;
    bool Meta = Record.RecordKind == TraceRecord::Kind::Meta;
    if (!Sink)
      Sink = std::make_unique<AttributionSink>(
          Registry, Meta ? Record.Config : AttributionConfig());
    switch (Record.RecordKind) {
    case TraceRecord::Kind::Meta:
      SampleInterval = Record.SampleInterval;
      Binary = Record.Producer;
      Git = Record.ProducerGit;
      break;
    case TraceRecord::Kind::Region: {
      uint32_t Local = Registry.define(Record.Region);
      IdMap[Record.RegionId] = Local;
      const RegionInfo &Info = Registry.info(Local);
      if (Chrome)
        Chrome->nameRow(Local, Info.ColorClass.empty()
                                   ? Info.Name
                                   : Info.Name + " [" + Info.ColorClass +
                                         "]");
      break;
    }
    case TraceRecord::Kind::Access: {
      const AccessEvent &E = Record.Access;
      uint64_t Block = Sink->config().L2BlockBytes;
      if (E.Mapped % Block + E.Size > Block)
        return Line.fail("access of " + std::to_string(E.Size) +
                         " bytes leaves its " + std::to_string(Block) +
                         "-byte L2 block");
      auto It = IdMap.find(Record.RegionId);
      uint32_t Local =
          It == IdMap.end() ? RegionRegistry::Unknown : It->second;
      Sink->record(E, Local);
      if (Chrome)
        Chrome->access(E, Local);
      break;
    }
    case TraceRecord::Kind::Evict:
      Sink->recordEvict(Record.Evict);
      if (Chrome)
        Chrome->evict(Record.Evict);
      break;
    case TraceRecord::Kind::Prefetch:
      Sink->onPrefetch(Record.Prefetch);
      if (Chrome)
        Chrome->prefetch(Record.Prefetch);
      break;
    }
    return true;
  }

  int render(long Records) override {
    if (Chrome)
      Chrome->finish();
    if (!Sink)
      Sink = std::make_unique<AttributionSink>(Registry, AttributionConfig());
    Sink->finalize();
    if (!Opts.Quiet) {
      std::string What = "records";
      if (SampleInterval > 1)
        What += " (1-in-" + std::to_string(SampleInterval) +
                " sampled; counts reflect sampled events only)";
      printSource(Opts, Records, What.c_str(), Binary, Git);
      std::printf("\n\n");
      Sink->printReport();
    }
    bool Ok = Opts.Json.empty() || writeOut(Opts.Json, [&](std::FILE *Out) {
                writeProfileJson(*Sink, Out, Binary, Git);
              });
    Ok = Ok && (Opts.Csv.empty() || writeOut(Opts.Csv, [&](std::FILE *Out) {
                  writeProfileCsv(*Sink, Out);
                }));
    return Ok ? 0 : 1;
  }

private:
  // The registry is rebuilt from the dump's region records. Trace region
  // ids are remapped through define() so the sink sees dense local ids;
  // the map is keyed, so any 32-bit trace id is safe.
  RegionRegistry Registry;
  std::unordered_map<uint32_t, uint32_t> IdMap;
  std::unique_ptr<AttributionSink> Sink;
  std::optional<ChromeWriter> Chrome;
  uint64_t SampleInterval = 1;
  std::string Binary, Git;
};

class MetricsInput final : public Input {
public:
  using Input::Input;

  bool add(JsonObject &Line) override { return parseMetricsLine(Line, Doc); }

  int render(long Records) override {
    if (!Opts.Quiet) {
      printSource(Opts, Records, "metrics records", Doc.Binary, Doc.Git);
      std::printf("\n\n");
      printMetricsReport(Doc, stdout);
    }
    if (Opts.ChromeOut)
      writeMetricsChrome(Doc, Opts.ChromeOut);
    bool Ok = Opts.Json.empty() || writeOut(Opts.Json, [&](std::FILE *Out) {
                writeMetricsSummaryJson(Doc, Out);
              });
    return Ok ? 0 : 1;
  }

private:
  MetricsDoc Doc;
};

/// Sim-vs-hardware divergence: pairs each result's simulated miss
/// counts with the hardware counts recorded around the corresponding
/// native run (fig5/fig6/fig7 --hw). The two columns deliberately do
/// not measure the same execution — the simulator replays a recorded
/// stream through the paper's memory system, the hardware counters
/// watch the native run on the host — so the ratio is a model-fidelity
/// signal, not an error bar. Rows are tabulated while reading, so a
/// mistyped one rejects the document before anything prints.
class BenchInput final : public Input {
public:
  using Input::Input;

  bool add(JsonObject &Line) override {
    if (Read)
      return Line.fail("a ccl-bench-v1 document is one line");
    Read = true;
    if (!parseBenchJson(Line, Doc))
      return false;
    for (size_t I = 0; I < Doc.Results.size(); ++I) {
      JsonObject Row(Doc.Results[I].Row);
      if (!addRow(Row))
        return Line.fail("results[" + std::to_string(I) + "]: " +
                         Row.error());
    }
    return true;
  }

  int render(long) override {
    std::printf("%s: bench %s (%s%s), %zu results", Opts.Path.c_str(),
                Doc.Bench.c_str(), Doc.BuildType.c_str(),
                Doc.Full ? ", full scale" : "", Doc.Results.size());
    if (!Doc.Binary.empty())
      std::printf(" from %s (%s)", Doc.Binary.c_str(), Doc.Git.c_str());
    std::printf("\n%s", HwLines.c_str());
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

private:
  bool addRow(JsonObject &Row) {
    std::string Name, Metric, Available, Reason = "no reason recorded";
    Row.get("name", Name);
    Row.get("metric", Metric);
    Row.get("hw_available", Available);
    Row.get("hw_reason", Reason);
    // A compact per-row label: the distinguishing sweep fields the
    // figure benches emit.
    std::string Label, Value;
    for (const char *Key : {"section", "layout", "variant", "strategy"}) {
      Value.clear();
      Row.get(Key, Value);
      if (!Value.empty())
        Label += (Label.empty() ? "" : " ") + Value;
    }
    uint64_t N = 0, Sim[3] = {}, Hw[3] = {};
    Row.get("searches", N);
    if (Row.find("searches"))
      Label += (Label.empty() ? "n=" : " n=") + TablePrinter::fmtInt(N);
    Row.get("sim_l1_misses", Sim[0]);
    Row.get("sim_l2_misses", Sim[1]);
    Row.get("sim_tlb_misses", Sim[2]);
    Row.get("hw_l1d_misses", Hw[0]);
    Row.get("hw_llc_misses", Hw[1]);
    Row.get("hw_dtlb_misses", Hw[2]);
    if (!Row.ok())
      return false;
    // The "(hw)" meta record reports counter availability on the
    // producing host.
    if (Metric == "hw")
      HwLines += Available == "yes" ? "hw: available\n"
                                    : "hw: unavailable (" + Reason + ")\n";
    if (!Row.find("sim_l1_misses") || !Row.find("hw_l1d_misses"))
      return true;
    auto Ratio = [](uint64_t S, uint64_t H) {
      return H > 0 ? TablePrinter::fmt(double(S) / double(H), 2) + "x"
                   : std::string("-");
    };
    Table.addRow({Name, Label, TablePrinter::fmtInt(Sim[0]),
                  TablePrinter::fmtInt(Hw[0]), Ratio(Sim[0], Hw[0]),
                  TablePrinter::fmtInt(Sim[1]), TablePrinter::fmtInt(Hw[1]),
                  Ratio(Sim[1], Hw[1]), TablePrinter::fmtInt(Sim[2]),
                  TablePrinter::fmtInt(Hw[2]), Ratio(Sim[2], Hw[2])});
    ++Paired;
    return true;
  }

  BenchDoc Doc;
  bool Read = false;
  std::string HwLines;
  TablePrinter Table{{"name", "cell", "sim L1", "hw l1d", "L1 ratio",
                      "sim L2", "hw llc", "L2 ratio", "sim TLB", "hw dtlb",
                      "TLB ratio"}};
  size_t Paired = 0;
};

template <typename T> std::unique_ptr<Input> openAs(const Options &Opts) {
  return std::make_unique<T>(Opts);
}

/// The format table: the schema on an input's first line, the output
/// options that format renders, and its reader.
struct Format {
  const char *Schema; // "": a trace dump written before schema stamps
  const char *Outputs;
  std::unique_ptr<Input> (*Open)(const Options &);
} const Formats[] = {
    {"", "--json --csv --chrome", openAs<TraceInput>},
    {"ccl-trace-v1", "--json --csv --chrome", openAs<TraceInput>},
    {"ccl-trace-v2", "--json --csv --chrome", openAs<TraceInput>},
    {"ccl-metrics-v1", "--json --chrome", openAs<MetricsInput>},
    {"ccl-bench-v1", "", openAs<BenchInput>},
};

/// Picks the format for the input's first line, or rejects the line.
std::unique_ptr<Input> openInput(const Options &Opts, JsonObject &First) {
  std::string Schema;
  First.get("schema", Schema);
  for (const Format &F : Formats) {
    if (Schema != F.Schema)
      continue;
    for (auto [Flag, Path] : {std::pair{"--json", &Opts.Json},
                              {"--csv", &Opts.Csv}, {"--chrome", &Opts.Chrome}})
      if (!Path->empty() && !std::strstr(F.Outputs, Flag))
        First.fail(std::string(Flag) + " does not apply to " + Schema);
    return First.ok() ? F.Open(Opts) : nullptr;
  }
  First.fail("unknown schema \"" + Schema + "\"");
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    auto takeValue = [&](std::string &Slot) {
      if (I + 1 >= Argc)
        return false;
      Slot = Argv[++I];
      return true;
    };
    if (std::strcmp(Argv[I], "--json") == 0) {
      if (!takeValue(Opts.Json))
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--csv") == 0) {
      if (!takeValue(Opts.Csv))
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--chrome") == 0) {
      if (!takeValue(Opts.Chrome))
        return usage(Argv[0]);
    } else if (std::strcmp(Argv[I], "--quiet") == 0) {
      Opts.Quiet = true;
    } else if (std::strcmp(Argv[I], "--help") == 0 ||
               std::strcmp(Argv[I], "-h") == 0) {
      usage(Argv[0]);
      return 0;
    } else if (Argv[I][0] == '-' && std::strcmp(Argv[I], "-") != 0) {
      std::fprintf(stderr, "cclstat: unknown option %s\n", Argv[I]);
      return usage(Argv[0]);
    } else if (Opts.Path.empty()) {
      Opts.Path = Argv[I];
    } else {
      return usage(Argv[0]);
    }
  }
  if (Opts.Path.empty())
    return usage(Argv[0]);
  if (!Opts.Chrome.empty() && !(Opts.ChromeOut = openOut(Opts.Chrome)))
    return 1;

  std::unique_ptr<Input> Reader;
  long Records = 0;
  std::string Error;
  readJsonLines(
      Opts.Path,
      [&](JsonObject &Line) {
        if (!Reader)
          Reader = openInput(Opts, Line);
        Records += Reader && Reader->add(Line);
      },
      Error);
  if (Error.empty() && !Reader)
    Error = Opts.Path + ": no records";
  if (!Error.empty()) {
    // Nothing renders, so drop the half-written --chrome file.
    if (Opts.ChromeOut && Opts.ChromeOut != stdout) {
      std::fclose(Opts.ChromeOut);
      std::remove(Opts.Chrome.c_str());
    }
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  int Status = Reader->render(Records);
  closeOut(Opts.ChromeOut);
  return Status;
}
