//===- support/Metrics.h - Low-overhead runtime metrics registry ----------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Process-wide metrics registry with per-thread sharded storage:
//
//  * Counter / Histogram handles are registered once by name and stay
//    valid for the process lifetime (register-once, pointer-stable).
//  * Increments touch only the calling thread's shard: a relaxed
//    load+store on a thread-owned atomic cell — a plain add on x86, no
//    lock prefix, clean under tsan. No cross-thread cacheline traffic
//    on the hot path.
//  * snapshot() aggregates all shards under the registry mutex. Shards
//    outlive their owning threads (and are recycled to later threads),
//    so totals are never lost when SweepRunner workers exit.
//  * Histograms use power-of-two buckets: value V lands in bucket
//    std::bit_width(V), i.e. bucket 0 holds V==0 and bucket B>=1 holds
//    V in [2^(B-1), 2^B).
//  * Spans are coarse named intervals (bench phases: record / replay /
//    warmup / window / morph); recording one takes the registry mutex,
//    so they are for phase-granularity events only.
//  * The instrumented path never calls malloc. Names live in fixed
//    tables (truncated past 47 characters), spans in a fixed buffer
//    (drops are counted, see Snapshot::SpansDropped), shards in a
//    static pool. This is a correctness property, not a micro-
//    optimization: simulated miss counts depend on the malloc layout
//    of the traced structures, and a registry that allocated lazily
//    mid-benchmark would shift node addresses and perturb the golden
//    figures.
//
// This lives in src/support (not src/obs) so that the heap, core, and
// sim layers can increment counters without a dependency cycle —
// ccl_obs links against those libraries. The ccl-metrics-v1 exporter
// and the hardware-counter wrapper live in src/obs.
//
//===----------------------------------------------------------------------===//

#ifndef CCL_SUPPORT_METRICS_H
#define CCL_SUPPORT_METRICS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace ccl::metrics {

/// One per-thread storage slot. Owner thread writes with relaxed
/// load+store; readers aggregate with relaxed loads.
using Cell = std::atomic<uint64_t>;

/// Capacity limits: fixed-size shards keep every cell pointer stable
/// for the process lifetime with no growth locking on the hot path.
/// Registrations past the limit all map onto the reserved overflow
/// slot (the last index) so callers never fault; the snapshot flags it.
inline constexpr uint32_t MaxCounters = 256;
inline constexpr uint32_t MaxHistograms = 64;
/// Bucket B holds values with bit_width == B; uint64_t needs 0..64.
inline constexpr uint32_t HistogramBuckets = 65;

struct Counter {
  uint32_t Id = MaxCounters - 1;
};

struct Histogram {
  uint32_t Id = MaxHistograms - 1;
};

/// Register (or look up) a counter by name. Idempotent: the same name
/// always yields the same handle. Thread-safe.
Counter counter(const char *Name);

/// Register (or look up) a power-of-two-bucket histogram by name.
Histogram histogram(const char *Name);

namespace detail {
/// This thread's shard cells: a TU-local TLS read plus a first-use
/// shard lease, out-of-line on purpose. An extern thread_local read
/// inlined here would go through the C++ TLS wrapper, which UBSan
/// (GCC) flags with a spurious null-pointer-load report; hot callers
/// cache the returned Cell* anyway, so the call costs nothing where it
/// matters.
Cell *counterCells();
Cell *histogramCells(); // [MaxHistograms][Buckets+1 sums]
/// Stride of one histogram inside the per-shard histogram block:
/// HistogramBuckets bucket cells followed by one sum cell.
inline constexpr uint32_t HistogramStride = HistogramBuckets + 1;
} // namespace detail

/// Owner-thread increment on a cached cell. Relaxed load+store: the
/// owning thread is the only writer, so no RMW atomicity is needed.
inline void bump(Cell *C, uint64_t N = 1) {
  C->store(C->load(std::memory_order_relaxed) + N,
           std::memory_order_relaxed);
}

/// This thread's cell for a counter. The pointer stays valid for the
/// process lifetime but belongs to the calling thread's shard: cache it
/// only in objects used from a single thread (e.g. CcHeap, which is
/// documented single-threaded).
inline Cell *cell(Counter C) {
  uint32_t Id = C.Id < MaxCounters ? C.Id : MaxCounters - 1;
  return &detail::counterCells()[Id];
}

/// Increment a counter on the calling thread's shard.
inline void add(Counter C, uint64_t N = 1) {
  bump(cell(C), N);
}

/// Record a value into a power-of-two-bucket histogram.
inline void record(Histogram H, uint64_t Value) {
  uint32_t Id = H.Id < MaxHistograms ? H.Id : MaxHistograms - 1;
  Cell *Base = &detail::histogramCells()[Id * detail::HistogramStride];
  bump(&Base[std::bit_width(Value)]);
  bump(&Base[HistogramBuckets], Value); // running sum
}

/// Monotonic nanoseconds since the process metrics epoch (first use).
uint64_t clockNs();

/// Record a completed span (phase interval). Takes the registry mutex:
/// use for phase-granularity events, not per-operation timing. Name
/// must outlive the process (pass a string literal): the registry
/// stores the pointer, not a copy, to stay heap-free.
void recordSpan(const char *Name, uint64_t StartNs, uint64_t DurNs);

/// RAII phase span: records [construction, destruction) under Name.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : Name(Name), StartNs(clockNs()) {}
  ~ScopedSpan() { recordSpan(Name, StartNs, clockNs() - StartNs); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  const char *Name;
  uint64_t StartNs;
};

struct SpanSnapshot {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint32_t Tid = 0; ///< Small per-thread id (shard lease order).
};

struct CounterSnapshot {
  std::string Name;
  uint64_t Value = 0;
};

struct HistogramSnapshot {
  std::string Name;
  uint64_t Count = 0; ///< Total samples (sum of Buckets).
  uint64_t Sum = 0;   ///< Sum of recorded values.
  uint64_t Buckets[HistogramBuckets] = {};
  /// Largest non-empty bucket index + 1 (0 when empty).
  uint32_t usedBuckets() const;
};

struct Snapshot {
  std::vector<CounterSnapshot> Counters;
  std::vector<HistogramSnapshot> Histograms;
  std::vector<SpanSnapshot> Spans;
  /// True when registrations exceeded MaxCounters/MaxHistograms and
  /// were folded into the overflow slot.
  bool Overflowed = false;
  /// Spans discarded because the fixed span buffer filled up.
  uint64_t SpansDropped = 0;
};

/// Aggregate every shard (live and retired) into one snapshot. Values
/// from threads still running are read with relaxed loads; counters
/// are individually coherent but the set is not a cross-counter
/// atomic cut.
Snapshot snapshot();

/// Zero every cell and drop recorded spans. Test-only: callers must
/// guarantee no concurrent writers.
void resetForTest();

} // namespace ccl::metrics

#endif // CCL_SUPPORT_METRICS_H
