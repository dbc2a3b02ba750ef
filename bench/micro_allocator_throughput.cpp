//===- bench/micro_allocator_throughput.cpp - Allocator microbench -----------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the allocator itself: §3.2 notes
// that "a heap allocator is invoked many more times than a data
// reorganizer, so it must use techniques that incur low overhead." This
// binary measures the native cost of one single-threaded allocator:
// the plain path, the three ccmalloc strategies, deallocation,
// free-list churn and hint-pressure search, against a system-malloc
// baseline.
// `--out <path>` emits google-benchmark JSON (the committed reference is
// BENCH_allocator_throughput.json). The companion reorganizer bench is
// micro_morph_throughput.
//
//===----------------------------------------------------------------------===//

#include "bench/MicroBenchMain.h"
#include "core/CcAllocator.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

using namespace ccl;

namespace {

void BM_PlainMalloc(benchmark::State &State) {
  CcAllocator Alloc;
  std::vector<void *> Ptrs;
  Ptrs.reserve(1 << 16);
  for (auto _ : State) {
    void *P = Alloc.ccmalloc(24);
    benchmark::DoNotOptimize(P);
    Ptrs.push_back(P);
    if (Ptrs.size() == (1 << 16)) {
      State.PauseTiming();
      for (void *Q : Ptrs)
        Alloc.ccfree(Q);
      Ptrs.clear();
      State.ResumeTiming();
    }
  }
}
BENCHMARK(BM_PlainMalloc);

template <heap::CcStrategy Strategy>
void BM_CcMallocNear(benchmark::State &State) {
  CcAllocator Alloc(CacheParams(), Strategy);
  std::vector<void *> Ptrs;
  Ptrs.reserve(1 << 16);
  void *Near = Alloc.ccmalloc(24);
  for (auto _ : State) {
    void *P = Alloc.ccmalloc(24, Near);
    benchmark::DoNotOptimize(P);
    Ptrs.push_back(P);
    Near = P;
    if (Ptrs.size() == (1 << 16)) {
      State.PauseTiming();
      for (void *Q : Ptrs)
        Alloc.ccfree(Q);
      Ptrs.clear();
      Near = Alloc.ccmalloc(24);
      State.ResumeTiming();
    }
  }
}
BENCHMARK(BM_CcMallocNear<heap::CcStrategy::Closest>)
    ->Name("BM_CcMallocNear/closest");
BENCHMARK(BM_CcMallocNear<heap::CcStrategy::NewBlock>)
    ->Name("BM_CcMallocNear/new-block");
BENCHMARK(BM_CcMallocNear<heap::CcStrategy::FirstFit>)
    ->Name("BM_CcMallocNear/first-fit");

// Near-allocation against a *fixed* hint whose page steadily fills:
// every call runs the strategy's block search over an increasingly
// occupied page — the worst case the bitmaps exist for.
template <heap::CcStrategy Strategy>
void BM_CcMallocNearPressure(benchmark::State &State) {
  CcAllocator Alloc(CacheParams(), Strategy);
  std::vector<void *> Ptrs;
  Ptrs.reserve(1 << 12);
  void *Hint = Alloc.ccmalloc(24);
  for (auto _ : State) {
    void *P = Alloc.ccmalloc(24, Hint);
    benchmark::DoNotOptimize(P);
    Ptrs.push_back(P);
    if (Ptrs.size() == (1 << 12)) {
      State.PauseTiming();
      for (void *Q : Ptrs)
        Alloc.ccfree(Q);
      Ptrs.clear();
      State.ResumeTiming();
    }
  }
}
BENCHMARK(BM_CcMallocNearPressure<heap::CcStrategy::Closest>)
    ->Name("BM_CcMallocNearPressure/closest");
BENCHMARK(BM_CcMallocNearPressure<heap::CcStrategy::FirstFit>)
    ->Name("BM_CcMallocNearPressure/first-fit");

void BM_AllocFreePair(benchmark::State &State) {
  CcAllocator Alloc;
  for (auto _ : State) {
    void *P = Alloc.ccmalloc(40);
    benchmark::DoNotOptimize(P);
    Alloc.ccfree(P);
  }
}
BENCHMARK(BM_AllocFreePair);

// Steady-state churn: a window of live chunks of mixed sizes with a
// deterministic replacement pattern. Exercises the free-list recycle
// path and block reclamation together (the size-class bins' hot loop).
void BM_AllocFreeChurn(benchmark::State &State) {
  constexpr size_t Window = 1 << 12;
  constexpr size_t Sizes[] = {16, 24, 40, 56};
  CcAllocator Alloc;
  std::vector<void *> Live(Window, nullptr);
  for (size_t I = 0; I < Window; ++I)
    Live[I] = Alloc.ccmalloc(Sizes[I % 4]);
  uint64_t Cursor = 0;
  for (auto _ : State) {
    // Multiplicative stride walks the window in a scattered order.
    size_t Slot = size_t((Cursor * 2654435761ULL) % Window);
    ++Cursor;
    Alloc.ccfree(Live[Slot]);
    Live[Slot] = Alloc.ccmalloc(Sizes[Slot % 4]);
    benchmark::DoNotOptimize(Live[Slot]);
  }
  for (void *P : Live)
    Alloc.ccfree(P);
}
BENCHMARK(BM_AllocFreeChurn);

void BM_SystemMallocBaseline(benchmark::State &State) {
  for (auto _ : State) {
    void *P = std::malloc(40);
    benchmark::DoNotOptimize(P);
    std::free(P);
  }
}
BENCHMARK(BM_SystemMallocBaseline);

} // namespace

int main(int Argc, char **Argv) {
  return ccl::bench::runMicroBenchmark(Argc, Argv);
}
