//===- obs/BenchReader.h - ccl-bench-v1 document reader --------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline reader for the single-document ccl-bench-v1 JSON that the
/// benchmark binaries emit via BenchJson (--out / CCL_BENCH_OUT). The
/// format is deliberately flat — a top-level object with scalar fields
/// plus a "results" array of flat objects — so this is a small
/// purpose-built scanner, not a general JSON parser. Used by cclstat's
/// sim-vs-hardware divergence table and by scripts via --json.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_BENCHREADER_H
#define CCL_OBS_BENCHREADER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ccl::obs {

/// One entry of the "results" array: ordered key -> raw-value pairs
/// (strings are unquoted/unescaped; numbers kept as written).
struct BenchResultRecord {
  std::vector<std::pair<std::string, std::string>> Fields;

  const std::string *raw(const std::string &Key) const;
  /// String field, or Default when absent.
  std::string str(const std::string &Key,
                  const std::string &Default = {}) const;
  /// Numeric field; \p Ok (when non-null) reports presence+parse.
  double num(const std::string &Key, bool *Ok = nullptr) const;
  bool has(const std::string &Key) const { return raw(Key) != nullptr; }
};

struct BenchDoc {
  std::string Bench;
  std::string BuildType;
  bool Full = false;
  std::vector<BenchResultRecord> Results;
};

/// Parses a ccl-bench-v1 document. Returns false when the text is not
/// such a document (wrong/missing schema, unbalanced results array).
bool parseBenchJson(const std::string &Text, BenchDoc &Doc);

/// Slurps and parses a file ("-" = stdin).
bool readBenchFile(const std::string &Path, BenchDoc &Doc);

} // namespace ccl::obs

#endif // CCL_OBS_BENCHREADER_H
