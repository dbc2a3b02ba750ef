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
///  * jsonEscape — the one string-escaping routine everything shares.
///
/// Trace schema (ccl-trace-v2; v1 dumps differ only in the meta line),
/// one object per line:
///   {"kind":"meta","schema":"ccl-trace-v2","l1_block":..,"l1_sets":..,
///    "l2_block":..,"l2_sets":..,"hot_sets":..,"sample":N,
///    "trace_block":64,"binary":"...","git":"..."}
///   {"kind":"region","id":3,"name":"ctree","color":"hot"}
///   {"kind":"a","now":..,"va":..,"pa":..,"sz":8,"w":0,"lvl":"mem",
///    "tlb":0,"cyc":70,"r":3}
///   {"kind":"e","now":..,"lvl":2,"pa":..,"wb":1}
///   {"kind":"p","now":..,"va":..,"pa":..,"sw":1}
///
/// Readers skip unknown kinds and keys and never gate on the schema
/// string. Dumps from the retired set-sharded replay engine carry
/// legacy {"kind":"shard",...} lines; nothing writes them any more and
/// readers skip them like any unknown kind. The v2 meta field
/// "trace_block" (records per block of the in-memory trace codec,
/// sim/TraceBuffer.h) follows the same rule, so v1 dumps, and v2 dumps
/// that still carry the retired "simd" kernel stamp, keep parsing.
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

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included).
std::string jsonEscape(const std::string &Raw);

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

/// Codec identification from a trace dump's meta line: the schema
/// string and (v2) the trace codec's records-per-block. All-empty for
/// dumps written before the stamps existed.
struct TraceCodecInfo {
  std::string Schema;
  uint64_t TraceBlock = 0;

  bool any() const { return !Schema.empty() || TraceBlock != 0; }
};

/// Writes an AttributionSink's results as one JSON document
/// (schema "ccl-profile-v1"): per-region profiles, totals, and the
/// nonzero entries of the L2 set-conflict histogram. When \p Codec
/// carries any meta-line codec fields, a "trace_codec" object is
/// appended to the document.
void writeProfileJson(const AttributionSink &Sink, std::FILE *Out,
                      const TraceCodecInfo *Codec = nullptr);

/// Writes the per-region profile table as CSV (header + one row per
/// region with any activity).
void writeProfileCsv(const AttributionSink &Sink, std::FILE *Out);

} // namespace ccl::obs

#endif // CCL_OBS_EXPORT_H
