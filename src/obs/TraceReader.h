//===- obs/TraceReader.h - JSONL trace dump parsing ------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the ccl-trace-v1 JSONL dumps written by TraceSink back into
/// event records, so tools/cclstat (and the exporter round-trip tests)
/// can rebuild a profile without re-running the simulation. The parser
/// handles exactly the flat one-object-per-line shape TraceSink emits;
/// it is not a general JSON parser.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_TRACEREADER_H
#define CCL_OBS_TRACEREADER_H

#include "obs/Attribution.h"
#include "obs/Observer.h"

#include <cstdio>
#include <string>

namespace ccl::obs {

/// One parsed trace line.
struct TraceRecord {
  enum class Kind { Meta, Region, Access, Evict, Prefetch } RecordKind;

  // Kind::Meta
  AttributionConfig Config;
  uint64_t SampleInterval = 1;
  // Producing binary + git describe stamp; empty in dumps written
  // before they were added to the meta line.
  std::string Producer;
  std::string ProducerGit;
  // Schema string ("ccl-trace-v1" / "ccl-trace-v2"); empty when the
  // meta line predates the stamp. v2 metas also carry the trace codec's
  // records per block (0 = absent).
  std::string Schema;
  uint64_t TraceBlock = 0;

  // Kind::Region
  uint32_t RegionId = 0;
  RegionInfo Region;

  // Kind::Access (RegionId also set)
  AccessEvent Access;

  // Kind::Evict
  EvictEvent Evict;

  // Kind::Prefetch
  PrefetchEvent Prefetch;
};

/// Parses one JSONL line. Returns false (leaving \p Out unspecified) for
/// blank lines or lines of an unknown kind — including the legacy
/// "shard" lines of older dumps. Callers should skip those rather than
/// abort, so schema additions and retirements stay compatible.
bool parseTraceLine(const std::string &Line, TraceRecord &Out);

/// Reads an entire dump, invoking \p Callback for each parsed record in
/// file order. Returns the number of parsed records, never negative:
/// skipped lines are not counted, and a read error ends the dump early.
template <typename Fn> long readTraceFile(std::FILE *In, Fn &&Callback) {
  std::string Line;
  long Parsed = 0;
  int C;
  while ((C = std::fgetc(In)) != EOF) {
    if (C != '\n') {
      Line.push_back(char(C));
      continue;
    }
    TraceRecord Record;
    if (parseTraceLine(Line, Record)) {
      ++Parsed;
      Callback(Record);
    }
    Line.clear();
  }
  if (!Line.empty()) {
    TraceRecord Record;
    if (parseTraceLine(Line, Record)) {
      ++Parsed;
      Callback(Record);
    }
  }
  return Parsed;
}

} // namespace ccl::obs

#endif // CCL_OBS_TRACEREADER_H
