//===- support/Metrics.cpp - Low-overhead runtime metrics registry --------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
// Heap-free by construction: every structure here lives in static
// storage (or, past the static shard pool, in memory acquired once per
// extra thread). The simulator's golden numbers depend on the malloc
// layout of the traced structures — a lazily heap-allocating registry
// would shift node addresses mid-benchmark and perturb simulated miss
// counts, so the registry must never call malloc on the instrumented
// path. That rules out std::string name tables, vector push_back for
// spans, *and* C++ thread_local destructors (glibc's
// __cxa_thread_atexit allocates its dtor-list entries); thread-exit
// shard reclamation goes through a pthread key instead, whose
// first-block slots are embedded in struct pthread.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/ThreadSafety.h"

#include <chrono>
#include <cstring>
#include <new>
#include <pthread.h>

using namespace ccl;
using namespace ccl::metrics;

namespace {

/// Name bytes kept per registered metric (including the NUL). Longer
/// names are truncated; two names identical in the first MaxNameLen-1
/// characters alias the same slot.
constexpr uint32_t MaxNameLen = 48;

/// Shards handed out before falling back to operator new. Covers the
/// main thread plus any realistic SweepRunner pool; only hosts running
/// more than this many concurrent instrumented threads ever touch the
/// heap (and those allocations happen in worker threads, after trace
/// recording, where they cannot perturb recorded addresses).
constexpr uint32_t StaticShardPool = 16;

/// Fixed span buffer. Benches record phase-granularity spans (tens per
/// run); per-operation recorders (e.g. a google-benchmark loop around
/// ccmorph) can exceed this — extras are counted in SpansDropped, not
/// silently discarded.
constexpr uint32_t MaxSpans = 1024;

/// Fixed-size per-thread storage. Shards are never destroyed: a thread
/// leases one on first use and returns it to a free pool on exit, so a
/// later thread continues accumulating into the same (never-zeroed)
/// cells. Totals therefore survive thread churn and memory stays
/// bounded by the peak live-thread count.
struct ShardImpl {
  Cell Counters[MaxCounters] = {};
  Cell Histograms[MaxHistograms * detail::HistogramStride] = {};
  uint32_t Tid = 0;
  ShardImpl *AllNext = nullptr;  ///< Intrusive list of every shard ever.
  ShardImpl *FreeNext = nullptr; ///< Free-pool link (under RegistryMutex).
};

ShardImpl StaticShards[StaticShardPool];

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
  /// Shard *cells* are relaxed atomics readable without the mutex; the
  /// list links themselves are mutated only under it.
  ShardImpl *AllShards CCL_GUARDED_BY(Mutex) = nullptr;
  ShardImpl *FreeShards CCL_GUARDED_BY(Mutex) = nullptr;
  uint32_t NextStatic CCL_GUARDED_BY(Mutex) = 0; ///< Next unleased index.
  uint32_t NextTid CCL_GUARDED_BY(Mutex) = 0;
  SpanRec Spans[MaxSpans] CCL_GUARDED_BY(Mutex);
  uint32_t NumSpans CCL_GUARDED_BY(Mutex) = 0;
  uint64_t SpansDropped CCL_GUARDED_BY(Mutex) = 0;
  pthread_key_t ExitKey CCL_GUARDED_BY(Mutex);
  bool ExitKeyValid CCL_GUARDED_BY(Mutex) = false;
};

RegistryState &state() {
  // Leaked singleton in static storage (placement new, never
  // destroyed): shards and handles must outlive static destructors of
  // client code that still increments on exit paths, and construction
  // must not touch the heap.
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

/// pthread-key destructor: runs on thread exit and returns the shard
/// to the pool; the mutex hand-off orders the old owner's relaxed
/// writes before the next owner's. (Not run for the main thread at
/// process exit — its shard simply stays leased in static storage.)
void releaseShard(void *P) {
  auto *S = static_cast<ShardImpl *>(P);
  RegistryState &R = state();
  MutexLock Lock(R.Mutex);
  S->FreeNext = R.FreeShards;
  R.FreeShards = S;
}

thread_local ShardImpl *TlsShard = nullptr;
thread_local Cell *TlsCounters = nullptr;
thread_local Cell *TlsHistograms = nullptr;

ShardImpl *acquireShard() {
  if (TlsShard)
    return TlsShard;
  RegistryState &R = state();
  MutexLock Lock(R.Mutex);
  if (!R.ExitKeyValid)
    R.ExitKeyValid = pthread_key_create(&R.ExitKey, releaseShard) == 0;
  ShardImpl *S = R.FreeShards;
  if (S) {
    R.FreeShards = S->FreeNext;
    S->FreeNext = nullptr;
  } else {
    S = R.NextStatic < StaticShardPool ? &StaticShards[R.NextStatic++]
                                       : new ShardImpl();
    S->Tid = R.NextTid++;
    S->AllNext = R.AllShards;
    R.AllShards = S;
  }
  TlsShard = S;
  TlsCounters = S->Counters;
  TlsHistograms = S->Histograms;
  if (R.ExitKeyValid)
    pthread_setspecific(R.ExitKey, S);
  return S;
}

} // namespace

namespace ccl::metrics::detail {
Cell *counterCells() {
  Cell *P = TlsCounters;
  return P ? P : acquireShard()->Counters;
}
Cell *histogramCells() {
  Cell *P = TlsHistograms;
  return P ? P : acquireShard()->Histograms;
}
} // namespace ccl::metrics::detail

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

uint64_t metrics::clockNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - Epoch)
                      .count());
}

void metrics::recordSpan(const char *Name, uint64_t StartNs,
                         uint64_t DurNs) {
  uint32_t Tid = acquireShard()->Tid;
  RegistryState &R = state();
  MutexLock Lock(R.Mutex);
  if (R.NumSpans >= MaxSpans) {
    ++R.SpansDropped;
    return;
  }
  R.Spans[R.NumSpans++] = SpanRec{Name, StartNs, DurNs, Tid};
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
  for (uint32_t I = 0; I < R.NumCounters; ++I)
    Out.Counters[I].Name = R.CounterNames[I];
  Out.Histograms.resize(R.NumHistograms);
  for (uint32_t I = 0; I < R.NumHistograms; ++I)
    Out.Histograms[I].Name = R.HistogramNames[I];

  for (ShardImpl *S = R.AllShards; S; S = S->AllNext) {
    for (uint32_t I = 0; I < Out.Counters.size(); ++I)
      Out.Counters[I].Value +=
          S->Counters[I].load(std::memory_order_relaxed);
    for (uint32_t I = 0; I < Out.Histograms.size(); ++I) {
      const Cell *Base = &S->Histograms[I * detail::HistogramStride];
      HistogramSnapshot &H = Out.Histograms[I];
      for (uint32_t B = 0; B < HistogramBuckets; ++B) {
        uint64_t N = Base[B].load(std::memory_order_relaxed);
        H.Buckets[B] += N;
        H.Count += N;
      }
      H.Sum += Base[HistogramBuckets].load(std::memory_order_relaxed);
    }
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
  for (ShardImpl *S = R.AllShards; S; S = S->AllNext) {
    for (Cell &C : S->Counters)
      C.store(0, std::memory_order_relaxed);
    for (Cell &C : S->Histograms)
      C.store(0, std::memory_order_relaxed);
  }
  R.NumSpans = 0;
  R.SpansDropped = 0;
}
