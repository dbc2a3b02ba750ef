//===- obs/Json.h - Shared JSON pieces of the ccl-* writers -----*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every ccl-* writer shares: string escaping, and the
/// envelope "schema","binary","git" that every document starts with (a
/// JSONL dump in its first, "meta", line). The readers are Python
/// scripts: scripts/cclstat.py for ccl-metrics-v1 dumps and
/// scripts/bench_compare.py for ccl-bench-v1 documents.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_JSON_H
#define CCL_OBS_JSON_H

#include "support/BuildInfo.h"

#include <cstdio>
#include <string>

namespace ccl::obs {

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included): '"', '\\' and every control character; other bytes,
/// UTF-8 and 0x7f included, pass through.
std::string jsonEscape(const std::string &Raw);

/// Writes `"schema":"<Schema>","binary":"<Binary>","git":"<Git>"`, the
/// members every ccl-* document starts with; the caller writes the
/// braces. A document derived from a dump passes the dump's stamp.
void writeMeta(std::FILE *Out, const char *Schema,
               const std::string &Binary = binaryName(),
               const std::string &Git = gitDescribe());

} // namespace ccl::obs

#endif // CCL_OBS_JSON_H
