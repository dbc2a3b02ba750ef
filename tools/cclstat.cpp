//===- tools/cclstat.cpp - Render a ccl-metrics-v1 dump -------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// cclstat: renders a ccl-metrics-v1 dump (a bench binary's --metrics
// output) without re-running the benchmark. The dump is read through the
// one JSONL loop (obs/Json.h); its first line must carry the schema.
//
//   cclstat metrics.jsonl                       # text report
//   cclstat --chrome spans.json metrics.jsonl   # spans for chrome://tracing
//
// Reading from stdin: use "-" as the path. A malformed line or another
// schema exits 1 with "<path>: line N: <reason>", renders nothing and
// writes no file.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/MetricsExport.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace ccl::obs;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [options] <ccl-metrics-v1 dump | ->\n"
               "Renders a ccl-metrics-v1 dump as a text report.\n"
               "  --chrome <path>  also write the spans as Chrome trace "
               "JSON ('-' = stdout)\n",
               Prog);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path, Chrome;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--chrome") == 0) {
      if (I + 1 >= Argc)
        return usage(Argv[0]);
      Chrome = Argv[++I];
    } else if (std::strcmp(Argv[I], "--help") == 0 ||
               std::strcmp(Argv[I], "-h") == 0) {
      usage(Argv[0]);
      return 0;
    } else if (Argv[I][0] == '-' && std::strcmp(Argv[I], "-") != 0) {
      std::fprintf(stderr, "cclstat: unknown option %s\n", Argv[I]);
      return usage(Argv[0]);
    } else if (Path.empty()) {
      Path = Argv[I];
    } else {
      return usage(Argv[0]);
    }
  }
  if (Path.empty())
    return usage(Argv[0]);

  MetricsDoc Doc;
  long Lines = 0, Records = 0;
  std::string Error;
  readJsonLines(
      Path,
      [&](JsonObject &Line) {
        if (Lines++ == 0) {
          std::string Schema;
          Line.get("schema", Schema);
          if (Schema != "ccl-metrics-v1")
            Line.fail("unknown schema \"" + Schema + "\"");
        }
        Records += Line.ok() && parseMetricsLine(Line, Doc);
      },
      Error);
  if (Error.empty() && Lines == 0)
    Error = Path + ": no records";
  if (!Error.empty()) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }

  std::printf("%s: %ld metrics records", Path.c_str(), Records);
  if (!Doc.Binary.empty())
    std::printf(" from %s (%s)", Doc.Binary.c_str(), Doc.Git.c_str());
  std::printf("\n\n");
  printMetricsReport(Doc, stdout);
  if (Chrome.empty())
    return 0;
  std::FILE *Out = Chrome == "-" ? stdout : std::fopen(Chrome.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cclstat: cannot open %s for writing\n",
                 Chrome.c_str());
    return 1;
  }
  writeMetricsChrome(Doc, Out);
  if (Out != stdout)
    std::fclose(Out);
  return 0;
}
