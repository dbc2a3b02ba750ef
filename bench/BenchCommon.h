//===- bench/BenchCommon.h - Shared benchmark harness helpers --*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small shared pieces for the per-figure/per-table benchmark binaries:
/// a `--full` flag for paper-scale inputs (defaults are scaled down to
/// finish in seconds), percentage/normalization formatting, and the
/// machine-readable summary channel: `--out <path>` selects a file to
/// which the benchmark writes a ccl-bench-v1 JSON document via
/// BenchJson, so CI can archive results without scraping tables.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_BENCH_BENCHCOMMON_H
#define CCL_BENCH_BENCHCOMMON_H

#include "obs/Json.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace ccl::bench {

/// Build flavour of *this binary* ("release" when NDEBUG is defined,
/// "debug" otherwise). Authoritative for perf numbers — unlike
/// google-benchmark's library_build_type context field, which reports
/// how the (system) benchmark library was compiled, not the benchmark.
inline const char *buildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Warns on stderr when a benchmark binary was built without NDEBUG:
/// debug numbers must never be mistaken for the reference artifacts.
/// stderr so golden stdout tables stay byte-identical.
inline void warnIfDebugBuild() {
#ifndef NDEBUG
  std::fprintf(stderr,
               "[bench] WARNING: built without NDEBUG (asserts on) - "
               "numbers are not comparable to release artifacts\n");
#endif
}

/// True if `--full` was passed: run paper-scale inputs.
inline bool fullScale(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--full") == 0)
      return true;
  return false;
}

/// True if \p Flag was passed verbatim.
inline bool hasFlag(int Argc, char **Argv, const char *Flag) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return true;
  return false;
}

/// Value of `<Flag> <value>` or `<Flag>=<value>`; empty when absent.
inline std::string flagValue(int Argc, char **Argv, const char *Flag) {
  size_t Len = std::strlen(Flag);
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], Flag) == 0 && I + 1 < Argc)
      return Argv[I + 1];
    if (std::strncmp(Argv[I], Flag, Len) == 0 && Argv[I][Len] == '=')
      return Argv[I] + Len + 1;
  }
  return {};
}

/// Path for the machine-readable summary: `--out <path>` /
/// `--out=<path>`; empty means disabled.
inline std::string benchOutPath(int Argc, char **Argv) {
  return flagValue(Argc, Argv, "--out");
}

/// Path for a ccl-metrics-v1 runtime-metrics dump: `--metrics <path>` /
/// `--metrics=<path>`; empty means disabled ("-" = stdout).
inline std::string metricsOutPath(int Argc, char **Argv) {
  return flagValue(Argc, Argv, "--metrics");
}

/// Accumulates one benchmark run's results and writes them as a single
/// JSON document (schema ccl-bench-v1), starting with obs/Json.h's
/// envelope:
///
///   {"schema":"ccl-bench-v1","binary":"fig5_...","git":"...",
///    "bench":"fig5","full":false,"build_type":"bench",
///    "results":[{"name":"...",...}]}
///
/// Usage: beginResult() starts a result object; num()/integer()/str()
/// append fields to the most recent one.
class BenchJson {
public:
  BenchJson(std::string Bench, bool Full)
      : Bench(std::move(Bench)), Full(Full) {}

  void beginResult(const std::string &Name) {
    Results.emplace_back();
    str("name", Name);
  }

  void num(const std::string &Key, double Value) {
    char Buffer[64];
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
    addField(Key, Buffer);
  }

  void integer(const std::string &Key, uint64_t Value) {
    char Buffer[32];
    std::snprintf(Buffer, sizeof(Buffer), "%llu",
                  static_cast<unsigned long long>(Value));
    addField(Key, Buffer);
  }

  void str(const std::string &Key, const std::string &Value) {
    // Built with append: GCC 12 at -O3 warns (-Wrestrict, a false
    // positive) on "literal" + std::string.
    std::string Quoted = "\"";
    Quoted.append(obs::jsonEscape(Value)).append("\"");
    addField(Key, Quoted);
  }

  /// Writes the document to \p Path ("-" = stdout). Returns false (with
  /// a note on stderr) if the file cannot be opened.
  bool write(const std::string &Path) const {
    std::FILE *Out =
        Path == "-" ? stdout : std::fopen(Path.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "ccl-bench: cannot open %s for writing\n",
                   Path.c_str());
      return false;
    }
    std::fprintf(Out, "{");
    obs::writeMeta(Out, "ccl-bench-v1");
    std::fprintf(Out,
                 ",\"bench\":\"%s\",\"full\":%s,\"build_type\":\"%s\","
                 "\"results\":[",
                 obs::jsonEscape(Bench).c_str(), Full ? "true" : "false",
                 buildType());
    for (size_t R = 0; R < Results.size(); ++R) {
      std::fprintf(Out, "%s{", R == 0 ? "" : ",");
      for (size_t F = 0; F < Results[R].size(); ++F)
        std::fprintf(Out, "%s%s", F == 0 ? "" : ",",
                     Results[R][F].c_str());
      std::fprintf(Out, "}");
    }
    std::fprintf(Out, "]}\n");
    if (Out != stdout)
      std::fclose(Out);
    else
      std::fflush(Out);
    return true;
  }

  /// write() only if a path was selected; reports where the summary went.
  void writeIfRequested(const std::string &Path) const {
    if (Path.empty())
      return;
    if (write(Path) && Path != "-")
      std::printf("\n[bench] wrote %s\n", Path.c_str());
  }

private:
  void addField(const std::string &Key, const std::string &Rendered) {
    if (Results.empty())
      Results.emplace_back();
    std::string Field = "\"";
    Field.append(obs::jsonEscape(Key)).append("\":").append(Rendered);
    Results.back().push_back(std::move(Field));
  }

  std::string Bench;
  bool Full;
  /// Each result is a list of pre-rendered "key":value fields.
  std::vector<std::vector<std::string>> Results;
};

inline void printHeader(const char *Title, const char *PaperRef,
                        bool Full) {
  warnIfDebugBuild();
  std::printf("\n=== %s ===\n", Title);
  std::printf("Reproduces: %s\n", PaperRef);
  std::printf("Scale: %s (pass --full for paper-scale inputs)\n\n",
              Full ? "FULL (paper-scale)" : "default (scaled down)");
}

/// "87.3%" style normalized-time cell (Base = 100).
inline std::string pct(double Value, double Base) {
  return TablePrinter::fmt(100.0 * Value / Base, 1) + "%";
}

/// "1.42x" style speedup cell.
inline std::string speedupStr(double Base, double Value) {
  return TablePrinter::fmt(Base / Value, 2) + "x";
}

} // namespace ccl::bench

#endif // CCL_BENCH_BENCHCOMMON_H
