//===- obs/MetricsExport.h - ccl-metrics-v1 writer --------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSONL export for the support-layer metrics registry
/// (support/Metrics.h). scripts/cclstat.py reads and renders the dumps.
///
/// Metrics schema (ccl-metrics-v1), one object per line:
///   {"kind":"meta","schema":"ccl-metrics-v1","binary":"fig5_...",
///    "git":"a382da8","clock_ns":123456}
///   {"kind":"c","name":"ccmalloc.alloc_fast","v":123}
///   {"kind":"h","name":"ccmorph.pass_nodes","count":8,"sum":91833,
///    "b":[[13,2],[14,6]]}            // sparse [bucket,count] pairs;
///                                    // bucket B holds bit_width==B
///   {"kind":"s","name":"fig5.replay","t0":1000,"dur":52000,"tid":0}
///
/// The meta line starts with obs/Json.h's envelope.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_METRICSEXPORT_H
#define CCL_OBS_METRICSEXPORT_H

#include "obs/Json.h"
#include "support/Metrics.h"

#include <cstdio>
#include <string>

namespace ccl::obs {

/// Writes a registry snapshot as a ccl-metrics-v1 JSONL dump (meta
/// line, counters, histograms with non-empty buckets, spans). Zero
/// counters/histograms are kept: absence of traffic is a result.
void writeMetricsJsonl(const metrics::Snapshot &Snapshot, std::FILE *Out);

/// Snapshot of the current process registry, written to \p Path
/// ("-" = stdout). Returns false with a note on stderr if the file
/// cannot be opened. No-op (returns true) when \p Path is empty.
bool dumpProcessMetrics(const std::string &Path);

} // namespace ccl::obs

#endif // CCL_OBS_METRICSEXPORT_H
