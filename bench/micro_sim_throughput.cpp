//===- bench/micro_sim_throughput.cpp - Simulator hot-path throughput --------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Google-benchmark microbenchmark for the MemoryHierarchy itself: simulated
// accesses per second for three canonical traces (pointer-chase, streaming,
// uniform-random) at both paper presets (E5000 and RSIM Table 1). Every
// figure and ablation in this repo is produced by pushing tens of millions
// of addresses through this simulator, so this number *is* the repo's
// wall-clock. Items/sec in the report = simulated accesses/sec.
//
//===----------------------------------------------------------------------===//

#include "bench/MicroBenchMain.h"
#include "sim/MemoryHierarchy.h"
#include "sim/TraceBuffer.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

using namespace ccl::sim;

namespace {

// Hermetic 64-bit LCG (MMIX constants); keeps traces identical across
// library and standard-library versions.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 17;
  }
};

enum class TraceKind { PointerChase, Streaming, Random };

// One trace entry: an 8-byte read at Addr (all three traces are
// read-only; writes take the identical hot path plus a dirty-bit or).
std::vector<uint64_t> makeTrace(TraceKind Kind, size_t Length) {
  std::vector<uint64_t> Addrs;
  Addrs.reserve(Length);
  Lcg Rng(0x51517ABCDEFULL);
  switch (Kind) {
  case TraceKind::PointerChase: {
    // Dependent-looking chase over 1<<15 64-byte nodes: mostly L1-resident
    // working set with misses into L2, like the paper's tree searches.
    const uint64_t Base = 0x7f1200000000ULL;
    uint64_t Node = 0;
    for (size_t I = 0; I < Length; ++I) {
      Addrs.push_back(Base + Node * 64);
      Node = Rng.next() % (1ULL << 15);
    }
    break;
  }
  case TraceKind::Streaming: {
    // Sequential 64-byte strides over a 16 MB region, wrapping around.
    const uint64_t Base = 0x7f3400000000ULL;
    for (size_t I = 0; I < Length; ++I)
      Addrs.push_back(Base + (I * 64) % (16ULL << 20));
    break;
  }
  case TraceKind::Random: {
    // Uniform random 8-byte reads over 64 MB: worst case for every level.
    const uint64_t Base = 0x7f5600000000ULL;
    for (size_t I = 0; I < Length; ++I)
      Addrs.push_back(Base + Rng.next() % (64ULL << 20));
    break;
  }
  }
  return Addrs;
}

HierarchyConfig presetFor(int64_t Arg) {
  return Arg == 0 ? HierarchyConfig::ultraSparcE5000()
                  : HierarchyConfig::rsimTable1();
}

void runTrace(benchmark::State &State, TraceKind Kind) {
  const std::vector<uint64_t> Trace = makeTrace(Kind, 1 << 20);
  MemoryHierarchy M(presetFor(State.range(0)));
  for (auto _ : State) {
    for (uint64_t Addr : Trace)
      M.read(Addr, 8);
    benchmark::DoNotOptimize(M.stats().L2Misses);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Trace.size()));
  State.SetLabel(State.range(0) == 0 ? "e5000" : "rsim");
}

void SimPointerChase(benchmark::State &State) {
  runTrace(State, TraceKind::PointerChase);
}

// Record-once/replay-many path: the pointer chase is encoded into a
// TraceBuffer once, then every iteration replays the sealed recording
// through MemoryHierarchy::replay(). Items/sec here vs SimPointerChase
// is the per-replay cost of the trace engine (decoding the recording
// vs iterating a raw address vector).
void SimPointerChaseReplay(benchmark::State &State) {
  const std::vector<uint64_t> Addrs =
      makeTrace(TraceKind::PointerChase, 1 << 20);
  TraceBuffer Buf;
  for (uint64_t Addr : Addrs)
    Buf.recordRead(Addr, 8);
  Buf.seal();
  MemoryHierarchy M(presetFor(State.range(0)));
  for (auto _ : State) {
    M.replay(Buf.view());
    benchmark::DoNotOptimize(M.stats().L2Misses);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Buf.records()));
  State.SetLabel(State.range(0) == 0 ? "e5000" : "rsim");
}

// Pure decode throughput: stream the recorded pointer chase through
// TraceCursor::consume and discard the records — no cache probes — so
// codec wins are measured separately from probe wins. The Arg is
// unused; it keeps the row name, SimTraceDecodeOnly/2, that
// BENCH_sim_throughput.json compares against.
void SimTraceDecodeOnly(benchmark::State &State) {
  const std::vector<uint64_t> Addrs =
      makeTrace(TraceKind::PointerChase, 1 << 20);
  TraceBuffer Buf;
  for (uint64_t Addr : Addrs)
    Buf.recordRead(Addr, 8);
  Buf.seal();
  uint64_t Sink = 0;
  for (auto _ : State) {
    TraceCursor Cursor(Buf.view());
    Cursor.consume(Buf.records(),
                   [&Sink](TraceRecord::Kind, uint64_t Addr, uint64_t) {
                     Sink += Addr;
                   });
    benchmark::DoNotOptimize(Sink);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Buf.records()));
}

void SimStreaming(benchmark::State &State) {
  runTrace(State, TraceKind::Streaming);
}

void SimRandom(benchmark::State &State) {
  runTrace(State, TraceKind::Random);
}

// The observed path: same pointer chase with a minimal counting observer
// attached. The gap to SimPointerChase is the full price of telemetry
// (the out-of-line observed loop + event construction + one virtual call
// per block); the unobserved runs above are the witness that detached
// costs nothing.
struct CountingObserver final : ccl::obs::SimObserver {
  uint64_t Accesses = 0;
  void onAccess(const ccl::obs::AccessEvent &Event) override {
    Accesses += Event.Size != 0;
  }
};

void SimPointerChaseObserved(benchmark::State &State) {
  const std::vector<uint64_t> Trace =
      makeTrace(TraceKind::PointerChase, 1 << 20);
  MemoryHierarchy M(presetFor(State.range(0)));
  CountingObserver Obs;
  M.attachObserver(&Obs);
  for (auto _ : State) {
    for (uint64_t Addr : Trace)
      M.read(Addr, 8);
    benchmark::DoNotOptimize(Obs.Accesses);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Trace.size()));
  State.SetLabel(State.range(0) == 0 ? "e5000" : "rsim");
}

BENCHMARK(SimPointerChase)->Arg(0)->Arg(1);
BENCHMARK(SimPointerChaseReplay)->Arg(0)->Arg(1);
BENCHMARK(SimTraceDecodeOnly)->Arg(2);
BENCHMARK(SimStreaming)->Arg(0)->Arg(1);
BENCHMARK(SimRandom)->Arg(0)->Arg(1);
BENCHMARK(SimPointerChaseObserved)->Arg(0)->Arg(1);

} // namespace

// Shared driver: `--out` -> google-benchmark JSON, ccl_build_type
// context, debug-build warning.
int main(int Argc, char **Argv) {
  return ccl::bench::runMicroBenchmark(Argc, Argv);
}
