//===- obs/TraceReader.h - JSONL trace dump parsing ------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps the lines of a ccl-trace-v1/v2 JSONL dump written by TraceSink
/// back into event records, so tools/cclstat can rebuild a profile
/// without re-running the simulation. Lines are parsed by the shared
/// JSON layer (obs/Json.h) and follow its reader contract.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_TRACEREADER_H
#define CCL_OBS_TRACEREADER_H

#include "obs/Attribution.h"
#include "obs/Json.h"
#include "obs/Observer.h"

#include <string>

namespace ccl::obs {

/// One parsed trace line.
struct TraceRecord {
  enum class Kind { Meta, Region, Access, Evict, Prefetch } RecordKind;

  // Kind::Meta
  AttributionConfig Config;
  uint64_t SampleInterval = 1;
  // The envelope (obs/Json.h writeMeta); each part is empty in dumps
  // written before it was stamped.
  std::string Producer;
  std::string ProducerGit;
  std::string Schema;

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

/// Maps one dump line: true for a record; false for an unknown kind
/// (skipped, like the legacy "shard" lines) or after Line.fail(), which
/// also rejects a meta line whose geometry fails
/// AttributionConfig::valid(). The string form is false for both.
bool parseTraceLine(JsonObject &Line, TraceRecord &Out);
bool parseTraceLine(const std::string &Line, TraceRecord &Out);

} // namespace ccl::obs

#endif // CCL_OBS_TRACEREADER_H
