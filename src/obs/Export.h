//===- obs/Export.h - Telemetry exporters ----------------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-readable output for the telemetry subsystem:
///
///  * TraceSink — a SimObserver that streams events to a JSONL file
///    (one JSON object per line), with optional 1-in-N sampling of
///    access events. tools/cclstat reconstructs a full profile report
///    from such a dump, or converts it to Chrome trace format.
///  * writeProfileJson / writeProfileCsv — summary exporters for an
///    AttributionSink (the CSV path reuses TablePrinter's CSV mode).
///
/// Both JSON writers escape strings and write their envelope through
/// obs/Json.h.
///
/// Trace schema (ccl-trace-v2), one object per line:
///   {"kind":"meta","schema":"ccl-trace-v2","binary":"...","git":"...",
///    "l1_block":..,"l1_sets":..,"l2_block":..,"l2_sets":..,
///    "hot_sets":..,"sample":N}
///   {"kind":"region","id":3,"name":"ctree","color":"hot"}
///   {"kind":"a","now":..,"va":..,"pa":..,"sz":8,"w":0,"lvl":"mem",
///    "tlb":0,"cyc":70,"r":3}
///   {"kind":"e","now":..,"lvl":2,"pa":..,"wb":1}
///   {"kind":"p","now":..,"va":..,"pa":..,"sw":1}
///
/// Readers follow obs/Json.h's contract and never gate on the schema
/// string, so v1 dumps keep parsing. Older dumps may carry legacy
/// {"kind":"shard",...} lines from the retired set-sharded replay
/// engine, or the retired "simd" and "trace_block" meta stamps; readers
/// skip them like any unknown kind or key.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_EXPORT_H
#define CCL_OBS_EXPORT_H

#include "obs/Attribution.h"
#include "obs/Observer.h"
#include "obs/Region.h"

#include <cstdio>
#include <string>
#include <vector>

namespace ccl::obs {

/// Options for the JSONL event dump.
struct TraceSinkOptions {
  /// Record every Nth access event (1 = record all). Evictions and
  /// prefetches are sampled on their own counters with the same period.
  uint64_t SampleInterval = 1;
  bool IncludeEvictions = true;
  bool IncludePrefetches = true;
};

/// Streams simulator events to a JSONL file. The sink does not own the
/// FILE; the caller closes it after detaching. Region definition lines
/// are emitted lazily the first time each region appears in an event.
class TraceSink : public SimObserver {
public:
  /// \param Registry used to resolve and label regions; may be null, in
  ///        which case events carry region id 0.
  TraceSink(std::FILE *Out, const AttributionConfig &Config,
            const RegionRegistry *Registry = nullptr,
            const TraceSinkOptions &Options = TraceSinkOptions());

  void onAccess(const AccessEvent &Event) override;
  void onEvict(const EvictEvent &Event) override;
  void onPrefetch(const PrefetchEvent &Event) override;

  uint64_t linesWritten() const { return Lines; }
  uint64_t accessEventsSeen() const { return AccessSeen; }

private:
  void emitRegionIfNew(uint32_t Id);

  std::FILE *Out;
  AttributionConfig Config;
  const RegionRegistry *Registry;
  TraceSinkOptions Options;
  std::vector<bool> RegionEmitted;
  uint64_t Lines = 0;
  uint64_t AccessSeen = 0;
  uint64_t EvictSeen = 0;
  uint64_t PrefetchSeen = 0;
};

/// Writes an AttributionSink's results as one JSON document
/// (schema "ccl-profile-v1"): per-region profiles, totals, and the
/// nonzero entries of the L2 set-conflict histogram. The envelope
/// carries \p Binary and \p Git, the stamp of the dump the profile was
/// rebuilt from.
void writeProfileJson(const AttributionSink &Sink, std::FILE *Out,
                      const std::string &Binary, const std::string &Git);

/// Writes the per-region profile table as CSV (header + one row per
/// region with any activity).
void writeProfileCsv(const AttributionSink &Sink, std::FILE *Out);

} // namespace ccl::obs

#endif // CCL_OBS_EXPORT_H
