//===- obs/BenchReader.h - ccl-bench-v1 document reader --------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline reader for the single-document ccl-bench-v1 JSON that the
/// benchmark binaries emit via BenchJson (--out / CCL_BENCH_OUT): the
/// envelope, a few scalar fields, and a "results" array of objects.
/// Documents are parsed by the shared JSON layer (obs/Json.h) and follow
/// its reader contract. Used by cclstat's sim-vs-hardware divergence
/// table.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_BENCHREADER_H
#define CCL_OBS_BENCHREADER_H

#include "obs/Json.h"

#include <string>
#include <vector>

namespace ccl::obs {

/// One entry of the "results" array.
struct BenchResultRecord {
  JsonValue Row; // an Object

  /// String field, or Default when absent or not a string.
  std::string str(const std::string &Key,
                  const std::string &Default = {}) const;
  /// Numeric field; \p Ok (when non-null) reports presence+parse.
  double num(const std::string &Key, bool *Ok = nullptr) const;
  bool has(const std::string &Key) const {
    return JsonObject(Row).find(Key) != nullptr;
  }
};

struct BenchDoc {
  std::string Binary;
  std::string Git;
  std::string Bench;
  std::string BuildType;
  bool Full = false;
  std::vector<BenchResultRecord> Results;
};

/// Maps a document; false after Doc.fail() when it is not ccl-bench-v1
/// (schema, a "results" array of objects) or a known key is mistyped.
bool parseBenchJson(JsonObject &Doc, BenchDoc &Out);
bool parseBenchJson(const std::string &Text, BenchDoc &Doc);

} // namespace ccl::obs

#endif // CCL_OBS_BENCHREADER_H
