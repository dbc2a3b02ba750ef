//===- support/Metrics.cpp - Low-overhead runtime metrics registry --------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
// Heap-free by construction: every structure here lives in static
// storage. The simulator's golden numbers depend on the malloc layout
// of the traced structures — a lazily heap-allocating registry would
// shift node addresses mid-benchmark and perturb simulated miss
// counts, so the registry must never call malloc on the instrumented
// path. That rules out std::string name tables, vector push_back for
// spans, and C++ thread_local destructors (glibc's __cxa_thread_atexit
// allocates its dtor-list entries); the one thread_local here, the
// span id, is a plain integer.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/ThreadSafety.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <new>

using namespace ccl;
using namespace ccl::metrics;

namespace {

/// Name bytes kept per registered metric (including the NUL). Longer
/// names are truncated; two names identical in the first MaxNameLen-1
/// characters alias the same slot.
constexpr uint32_t MaxNameLen = 48;

/// Fixed span buffer. Benches record phase-granularity spans (tens per
/// run); per-operation recorders (e.g. a google-benchmark loop around
/// ccmorph) can exceed this — extras are counted in SpansDropped, not
/// silently discarded.
constexpr uint32_t MaxSpans = 1024;

/// One cell per counter, and per histogram bucket plus a running sum.
/// Zero-initialized static storage, outside RegistryState (whose
/// constructor writes every member), so pages no metric writes are
/// never touched.
std::atomic<uint64_t> CounterCells[MaxCounters];
std::atomic<uint64_t> HistogramCells[MaxHistograms][HistogramBuckets + 1];

/// Span record as stored: the name pointer is the caller's (string
/// literals per the recordSpan contract), so no copy and no heap.
struct SpanRec {
  const char *Name;
  uint64_t StartNs;
  uint64_t DurNs;
  uint32_t Tid;
};

struct RegistryState {
  ccl::Mutex Mutex;
  char CounterNames[MaxCounters][MaxNameLen] CCL_GUARDED_BY(Mutex) = {};
  char HistogramNames[MaxHistograms][MaxNameLen] CCL_GUARDED_BY(Mutex) = {};
  uint32_t NumCounters CCL_GUARDED_BY(Mutex) = 0;
  uint32_t NumHistograms CCL_GUARDED_BY(Mutex) = 0;
  bool CounterOverflow CCL_GUARDED_BY(Mutex) = false;
  bool HistogramOverflow CCL_GUARDED_BY(Mutex) = false;
  uint32_t NextTid CCL_GUARDED_BY(Mutex) = 0;
  SpanRec Spans[MaxSpans] CCL_GUARDED_BY(Mutex);
  uint32_t NumSpans CCL_GUARDED_BY(Mutex) = 0;
  uint64_t SpansDropped CCL_GUARDED_BY(Mutex) = 0;
};

RegistryState &state() {
  // Leaked singleton in static storage (placement new, never
  // destroyed): handles must outlive static destructors of client code
  // that still adds on exit paths, and construction must not touch the
  // heap.
  alignas(RegistryState) static unsigned char Buf[sizeof(RegistryState)];
  static RegistryState *S = new (Buf) RegistryState();
  return *S;
}

uint32_t findOrAdd(char (*Names)[MaxNameLen], uint32_t &Num,
                   const char *Name, uint32_t Max, bool &Overflow) {
  for (uint32_t I = 0; I < Num; ++I)
    if (std::strncmp(Names[I], Name, MaxNameLen - 1) == 0)
      return I;
  // The last slot is reserved for overflow so late registrations never
  // alias a real metric.
  if (Num + 1 >= Max) {
    Overflow = true;
    return Max - 1;
  }
  std::strncpy(Names[Num], Name, MaxNameLen - 1);
  Names[Num][MaxNameLen - 1] = '\0';
  return Num++;
}

/// This thread's span id plus one; 0 until the thread records a span.
thread_local uint32_t SpanTid = 0;

} // namespace

Counter metrics::counter(const char *Name) {
  RegistryState &R = state();
  MutexLock Lock(R.Mutex);
  Counter C;
  C.Id = findOrAdd(R.CounterNames, R.NumCounters, Name, MaxCounters,
                   R.CounterOverflow);
  return C;
}

Histogram metrics::histogram(const char *Name) {
  RegistryState &R = state();
  MutexLock Lock(R.Mutex);
  Histogram H;
  H.Id = findOrAdd(R.HistogramNames, R.NumHistograms, Name, MaxHistograms,
                   R.HistogramOverflow);
  return H;
}

void metrics::add(Counter C, uint64_t N) {
  CounterCells[std::min(C.Id, MaxCounters - 1)].fetch_add(
      N, std::memory_order_relaxed);
}

void metrics::record(Histogram H, uint64_t Value) {
  std::atomic<uint64_t> *Cells =
      HistogramCells[std::min(H.Id, MaxHistograms - 1)];
  Cells[std::bit_width(Value)].fetch_add(1, std::memory_order_relaxed);
  Cells[HistogramBuckets].fetch_add(Value, std::memory_order_relaxed);
}

uint64_t metrics::clockNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - Epoch)
                      .count());
}

void metrics::recordSpan(const char *Name, uint64_t StartNs,
                         uint64_t DurNs) {
  RegistryState &R = state();
  MutexLock Lock(R.Mutex);
  if (SpanTid == 0)
    SpanTid = ++R.NextTid;
  if (R.NumSpans >= MaxSpans) {
    ++R.SpansDropped;
    return;
  }
  R.Spans[R.NumSpans++] = SpanRec{Name, StartNs, DurNs, SpanTid - 1};
}

uint32_t HistogramSnapshot::usedBuckets() const {
  for (uint32_t B = HistogramBuckets; B > 0; --B)
    if (Buckets[B - 1] != 0)
      return B;
  return 0;
}

Snapshot metrics::snapshot() {
  RegistryState &R = state();
  MutexLock Lock(R.Mutex);
  Snapshot Out;
  Out.Overflowed = R.CounterOverflow || R.HistogramOverflow;
  Out.SpansDropped = R.SpansDropped;

  Out.Counters.resize(R.NumCounters);
  for (uint32_t I = 0; I < R.NumCounters; ++I) {
    Out.Counters[I].Name = R.CounterNames[I];
    Out.Counters[I].Value = CounterCells[I].load(std::memory_order_relaxed);
  }
  Out.Histograms.resize(R.NumHistograms);
  for (uint32_t I = 0; I < R.NumHistograms; ++I) {
    HistogramSnapshot &H = Out.Histograms[I];
    H.Name = R.HistogramNames[I];
    for (uint32_t B = 0; B < HistogramBuckets; ++B) {
      H.Buckets[B] = HistogramCells[I][B].load(std::memory_order_relaxed);
      H.Count += H.Buckets[B];
    }
    H.Sum = HistogramCells[I][HistogramBuckets].load(std::memory_order_relaxed);
  }
  Out.Spans.reserve(R.NumSpans);
  for (uint32_t I = 0; I < R.NumSpans; ++I) {
    SpanSnapshot S;
    S.Name = R.Spans[I].Name;
    S.StartNs = R.Spans[I].StartNs;
    S.DurNs = R.Spans[I].DurNs;
    S.Tid = R.Spans[I].Tid;
    Out.Spans.push_back(std::move(S));
  }
  return Out;
}

void metrics::resetForTest() {
  RegistryState &R = state();
  MutexLock Lock(R.Mutex);
  for (std::atomic<uint64_t> &C : CounterCells)
    C.store(0, std::memory_order_relaxed);
  for (auto &Cells : HistogramCells)
    for (std::atomic<uint64_t> &C : Cells)
      C.store(0, std::memory_order_relaxed);
  R.NumSpans = 0;
  R.SpansDropped = 0;
}
