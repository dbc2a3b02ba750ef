//===- bench/MicroBenchMain.h - Shared google-benchmark driver -*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One main() for every google-benchmark microbench binary:
///
///  * `--out <path>` / `--out=<path>` map onto google-benchmark's JSON
///    reporter (--benchmark_out + --benchmark_out_format=json) — the
///    same machine-readable channel the figure benchmarks use;
///  * a `ccl_build_type` context field records how *this binary* was
///    compiled. google-benchmark's own library_build_type reflects the
///    (system) benchmark library, which on Debian reports "debug" even
///    for optimized binaries, so it cannot gate artifact acceptance;
///  * `cpu_model` (the first "model name" in /proc/cpuinfo) and `kernel`
///    (the uname release) context fields, so scripts/bench_compare.py can
///    say when a fresh run and its reference come from different hosts;
///  * a startup warning on stderr when NDEBUG is unset, so debug numbers
///    never silently become reference artifacts.
///
/// Usage: `int main(int Argc, char **Argv) { return
/// ccl::bench::runMicroBenchmark(Argc, Argv); }` after the BENCHMARK()
/// registrations.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_BENCH_MICROBENCHMAIN_H
#define CCL_BENCH_MICROBENCHMAIN_H

#include "bench/BenchCommon.h"

#include <benchmark/benchmark.h>

#include <sys/utsname.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace ccl::bench {

/// The first "model name" in /proc/cpuinfo, or "unknown".
inline std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Colon = Line.find(':');
    if (Line.rfind("model name", 0) != 0 || Colon == std::string::npos)
      continue;
    size_t Value = Line.find_first_not_of(" \t", Colon + 1);
    return Value == std::string::npos ? "unknown" : Line.substr(Value);
  }
  return "unknown";
}

/// The running kernel's release string, or "unknown".
inline std::string kernelRelease() {
  utsname Name;
  return uname(&Name) == 0 ? Name.release : "unknown";
}

inline int runMicroBenchmark(int Argc, char **Argv) {
  warnIfDebugBuild();
  std::string OutPath = benchOutPath(Argc, Argv);
  std::vector<char *> Args;
  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      ++I;
      continue;
    }
    if (std::strncmp(Argv[I], "--out=", 6) == 0)
      continue;
    Args.push_back(Argv[I]);
  }
  std::string OutFlag, FormatFlag;
  if (!OutPath.empty()) {
    OutFlag = "--benchmark_out=" + OutPath;
    FormatFlag = "--benchmark_out_format=json";
    Args.push_back(OutFlag.data());
    Args.push_back(FormatFlag.data());
  }
  benchmark::AddCustomContext("ccl_build_type", buildType());
  benchmark::AddCustomContext("cpu_model", cpuModel());
  benchmark::AddCustomContext("kernel", kernelRelease());
  int N = int(Args.size());
  benchmark::Initialize(&N, Args.data());
  if (benchmark::ReportUnrecognizedArguments(N, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

} // namespace ccl::bench

#endif // CCL_BENCH_MICROBENCHMAIN_H
