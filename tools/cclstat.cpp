//===- tools/cclstat.cpp - Render ccl-* telemetry artifacts ---------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// cclstat: renders a ccl-* artifact without re-running the benchmark.
// Every input is read through one JSONL loop (obs/Json.h), and the first
// line's "schema" picks the format from one table (Formats below):
// ccl-metrics-v1 renders the runtime-metrics report, and ccl-bench-v1
// the simulated-vs-hardware miss divergence table.
//
//   cclstat metrics.jsonl               # text report
//   cclstat --json - metrics.jsonl      # ccl-metrics-summary-v1 to stdout
//   cclstat --chrome spans.json metrics.jsonl   # spans for chrome://tracing
//   cclstat fig5.json                   # divergence table
//
// Reading from stdin: use "-" as the path. A malformed line, an unknown
// schema, or an output option the format lacks exits 1 with
// "<path>: line N: <reason>", renders nothing and writes no file.
//
//===----------------------------------------------------------------------===//

#include "obs/BenchReader.h"
#include "obs/Json.h"
#include "obs/MetricsExport.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

using namespace ccl::obs;
using ccl::TablePrinter;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] <ccl-* artifact | ->\n"
      "Renders a ccl-metrics-v1 or ccl-bench-v1 artifact; its first\n"
      "line's schema picks the report.\n"
      "  --json <path>    metrics: write ccl-metrics-summary-v1 JSON\n"
      "                   ('-' = stdout)\n"
      "  --chrome <path>  metrics: write the spans as Chrome trace JSON\n"
      "  --quiet          suppress the text report\n",
      Prog);
  return 2;
}

struct Options {
  std::string Path, Json, Chrome;
  bool Quiet = false;
};

/// Writes one output file ('-' = stdout) with \p Write; false if it
/// cannot be opened.
template <typename Fn> bool writeOut(const std::string &Path, Fn &&Write) {
  std::FILE *Out = Path == "-" ? stdout : std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cclstat: cannot open %s for writing\n",
                 Path.c_str());
    return false;
  }
  Write(Out);
  if (Out != stdout)
    std::fclose(Out);
  return true;
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

class MetricsInput final : public Input {
public:
  using Input::Input;

  bool add(JsonObject &Line) override { return parseMetricsLine(Line, Doc); }

  int render(long Records) override {
    if (!Opts.Quiet) {
      std::printf("%s: %ld metrics records", Opts.Path.c_str(), Records);
      if (!Doc.Binary.empty())
        std::printf(" from %s (%s)", Doc.Binary.c_str(), Doc.Git.c_str());
      std::printf("\n\n");
      printMetricsReport(Doc, stdout);
    }
    bool Ok =
        Opts.Chrome.empty() || writeOut(Opts.Chrome, [&](std::FILE *Out) {
          writeMetricsChrome(Doc, Out);
        });
    Ok = Ok && (Opts.Json.empty() || writeOut(Opts.Json, [&](std::FILE *Out) {
                  writeMetricsSummaryJson(Doc, Out);
                }));
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
  const char *Schema;
  const char *Outputs;
  std::unique_ptr<Input> (*Open)(const Options &);
} const Formats[] = {
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
    for (auto [Flag, Path] :
         {std::pair{"--json", &Opts.Json}, {"--chrome", &Opts.Chrome}})
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
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  return Reader->render(Records);
}
