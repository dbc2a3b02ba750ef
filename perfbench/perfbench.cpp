//===- perfbench/perfbench.cpp - End-to-end benchmark driver ---------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Closed-loop benchmark: one client runs operations back to back for a
// fixed wall-clock window. Each operation is one experiment cell of the
// kind the figure benches compute: a native stage (the structure
// exercised on the host) followed by a simulated stage (the same kind of
// work driven through the cache model).
//
//   tree-replay   Fig. 5 cell on a randomly placed BST: native searches,
//                 then a replay of their recording into a cold E5000
//                 hierarchy. Time goes to the simulator's replay path.
//   health-churn  Fig. 7 cell: Olden health under ccmalloc (new-block),
//                 natively and then live-simulated with the RSIM preset.
//                 Time goes to allocator churn and the live sim path.
//   morph-search  C-tree cell: ccmorph reorganizes a random BST, native
//                 searches run on the result, and a sample of them is
//                 recorded and replayed. Time goes to ccmorph and search.
//
// Every operation is checked: search hit counts against the key set,
// simulated statistics against a reference run (replay must equal a live
// simulation bit for bit), health checksums against the plain-heap
// variant (placement must not change results), and the reorganized tree
// against the BST invariants.
//
// Host times (operation, stage and set-up times) are scaled by a
// host-speed probe timed after every operation; see SpeedProbe.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// The last stdout line is one JSON object with keys correct, attempted,
// failed and metrics: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1 (stage spans are timed only then).
//
//===----------------------------------------------------------------------===//

#include "olden/Health.h"
#include "sim/AccessPolicy.h"
#include "sim/MemoryHierarchy.h"
#include "sim/TraceBuffer.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Timer.h"
#include "trees/BinaryTree.h"
#include "trees/CTree.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace ccl;

namespace {

/// Set-up is timed SetupRepeats times in each of SetupProcesses child
/// processes and the median of all the times reported. All the set-ups
/// of one process run at one of two speeds about 40% apart, whatever the
/// seed and unseen by the host-speed probe, so the median of one
/// process's set-ups moved by up to 30% between runs; drawing from
/// several processes halves that.
constexpr int SetupProcesses = 5;
constexpr int SetupRepeats = 4;
/// Untimed operations before the window: host caches fill and lazy
/// allocations (hierarchy arrays, trace capacity) settle.
constexpr double WarmupSeconds = 1.0;
/// Quantile of the per-operation (and probe) times that the gated
/// latency reports. On a shared host, neighbours slow stretches of a run
/// by up to 2x, which moves the median and tail between runs by 20-60%.
/// The 1st percentile is the cost of an operation in the run's quietest
/// moments; with thousands of operations a run it still has dozens of
/// samples below it, and it repeated across runs better than the 3rd and
/// 10th did. Median and tail are still reported by the traced run.
constexpr double GatedQuantile = 0.01;
/// Loads per pass of the host-speed probe.
constexpr uint32_t ProbeSteps = 20000;
/// The probe's gated quantile on the reference host, an Intel Xeon
/// (AVX-512) 4-vCPU KVM guest, when quiet. Host times are reported
/// multiplied by ProbeRefMs / (the run's probe quantile), i.e. as they
/// would read on that host at that speed.
constexpr double ProbeRefMs = 0.153;

/// What one operation produced. Stage times are filled only in traced
/// runs; everything else always.
struct OpReport {
  double NativeMs = 0.0;
  double SimMs = 0.0;
  /// Results of the two stages (search hits or health checksums).
  uint64_t NativeAnswer = 0;
  uint64_t SimAnswer = 0;
  sim::SimStats Sim;
  uint64_t TraceRecords = 0;
  uint64_t TraceBytes = 0;
  uint64_t MorphNodes = 0;
  uint64_t AllocCalls = 0;
  uint64_t NearCalls = 0;
  uint64_t SameBlock = 0;
};

/// Stage stopwatch that reads the clock only in traced runs, so the
/// untraced runs that give the end-to-end figures time the bare work.
class StageClock {
public:
  explicit StageClock(bool On) : On(On) {}
  void start() {
    if (On)
      T.restart();
  }
  double lapMs() {
    if (!On)
      return 0.0;
    double Ms = T.elapsedMs();
    T.restart();
    return Ms;
  }

private:
  bool On;
  Timer T;
};

bool sameStats(const sim::SimStats &A, const sim::SimStats &B) {
  return A.Reads == B.Reads && A.Writes == B.Writes &&
         A.L1Misses == B.L1Misses && A.L2Misses == B.L2Misses &&
         A.TlbMisses == B.TlbMisses && A.Writebacks == B.Writebacks &&
         A.totalCycles() == B.totalCycles();
}

/// Uniform keys over [1, 2n]: BinarySearchTree stores the odd keys
/// 1, 3, ..., 2n-1, so odd keys hit and even keys miss.
std::vector<uint32_t> makeKeys(uint64_t Seed, uint64_t Nodes, size_t Count) {
  Xoshiro256 Rng(Seed);
  std::vector<uint32_t> Keys(Count);
  for (uint32_t &Key : Keys)
    Key = uint32_t(Rng.nextBounded(2 * Nodes) + 1);
  return Keys;
}

uint64_t oddKeys(const std::vector<uint32_t> &Keys, size_t Count) {
  return uint64_t(std::count_if(Keys.begin(), Keys.begin() + Count,
                                [](uint32_t Key) { return Key & 1; }));
}

template <typename Tree, typename Access>
uint64_t searchAll(const Tree &T, const std::vector<uint32_t> &Keys,
                   size_t Count, Access &A) {
  uint64_t Hits = 0;
  for (size_t I = 0; I < Count; ++I)
    Hits += T.search(Keys[I], A) != nullptr;
  return Hits;
}

/// Pads a recording with zero-cycle ticks, which change no statistic,
/// until its length is one past a multiple of four. Replay decodes in
/// 64-record blocks, and the AVX2 decode kernel returns from a block
/// whose length is not a multiple of four without clearing the upper
/// vector state, which slows the SSE code that runs next (ccmorph's node
/// copy, ~2.5x). The last block's length follows from the seed's keys,
/// so without the padding a quarter of the seeds ran that code at full
/// speed and the rest did not. Every seed now takes the path most
/// recordings take, so a fix to the kernel shows up here.
void padTail(sim::RecordAccess &Rec) {
  while (Rec.buffer().records() % 4 != 1)
    Rec.tick(0);
}

/// Fig. 5 cell: a randomly placed BST six times the modeled L2, searched
/// natively, then the recorded searches replayed into a cold hierarchy.
class TreeReplay {
public:
  static constexpr uint64_t Nodes = (1 << 18) - 1;
  static constexpr size_t Searches = 2000;

  explicit TreeReplay(uint64_t Seed)
      : Config(sim::HierarchyConfig::ultraSparcE5000()),
        Tree(trees::BinarySearchTree::build(Nodes, LayoutScheme::Random,
                                            Seed)),
        Keys(makeKeys(Seed + 1, Nodes, Searches)),
        Hits(oddKeys(Keys, Searches)) {
    sim::RecordAccess Rec(Trace);
    SetupOk = searchAll(Tree, Keys, Searches, Rec) == Hits;
    padTail(Rec);
    Trace.seal();
    // The reference a replay must reproduce: the same searches driven
    // live through the simulator.
    sim::MemoryHierarchy Live(Config);
    sim::SimAccess A(Live);
    SetupOk &= searchAll(Tree, Keys, Searches, A) == Hits;
    Reference = Live.stats();
  }

  bool setupOk() const { return SetupOk; }

  OpReport run(StageClock &Clock) {
    OpReport R;
    Clock.start();
    sim::NativeAccess A;
    R.NativeAnswer = searchAll(Tree, Keys, Searches, A);
    R.NativeMs = Clock.lapMs();
    sim::MemoryHierarchy M(Config);
    M.replay(Trace.view());
    R.SimMs = Clock.lapMs();
    R.Sim = M.stats();
    R.TraceRecords = Trace.records();
    R.TraceBytes = Trace.bytes();
    return R;
  }

  bool check(const OpReport &R) const {
    return R.NativeAnswer == Hits && sameStats(R.Sim, Reference);
  }

private:
  sim::HierarchyConfig Config;
  trees::BinarySearchTree Tree;
  std::vector<uint32_t> Keys;
  uint64_t Hits;
  sim::TraceBuffer Trace;
  sim::SimStats Reference;
  bool SetupOk = false;
};

/// Fig. 7 cell: Olden health with ccmalloc's new-block strategy (the
/// paper's best on health), natively and simulated, over four input
/// seeds so one operation averages several list shapes.
class HealthChurn {
public:
  static constexpr unsigned Steps = 100;
  static constexpr unsigned SimSteps = 30;
  static constexpr olden::Variant Placement =
      olden::Variant::CcMallocNewBlock;

  explicit HealthChurn(uint64_t Seed)
      : Sim(sim::HierarchyConfig::rsimTable1()) {
    SplitMix64 Mix(Seed);
    for (Input &In : Inputs) {
      In.Native.Seed = Mix.next();
      In.Native.Steps = Steps;
      In.Simulated = In.Native;
      In.Simulated.Steps = SimSteps;
      // Reference checksums from the plain heap: placement must not
      // change what the simulation computes.
      In.NativeSum =
          olden::runHealth(In.Native, olden::Variant::Base, nullptr).Checksum;
      In.SimSum = olden::runHealth(In.Simulated, olden::Variant::Base, nullptr)
                      .Checksum;
    }
  }

  bool setupOk() const { return true; }

  OpReport run(StageClock &Clock) {
    OpReport R;
    Clock.start();
    for (const Input &In : Inputs) {
      olden::BenchResult Native =
          olden::runHealth(In.Native, Placement, nullptr);
      R.NativeAnswer += Native.Checksum;
      R.AllocCalls += Native.Heap.AllocCalls + Native.Heap.NearCalls;
      R.NearCalls += Native.Heap.NearCalls;
      R.SameBlock += Native.Heap.SameBlock;
    }
    R.NativeMs = Clock.lapMs();
    for (const Input &In : Inputs) {
      olden::BenchResult Simulated =
          olden::runHealth(In.Simulated, Placement, &Sim);
      R.SimAnswer += Simulated.Checksum;
      R.Sim += Simulated.Stats;
    }
    R.SimMs = Clock.lapMs();
    return R;
  }

  bool check(const OpReport &R) const {
    uint64_t NativeSum = 0, SimSum = 0;
    for (const Input &In : Inputs) {
      NativeSum += In.NativeSum;
      SimSum += In.SimSum;
    }
    return R.NativeAnswer == NativeSum && R.SimAnswer == SimSum &&
           R.Sim.isConsistent();
  }

private:
  struct Input {
    olden::HealthConfig Native;
    olden::HealthConfig Simulated;
    uint64_t NativeSum = 0;
    uint64_t SimSum = 0;
  };
  sim::HierarchyConfig Sim;
  std::array<Input, 4> Inputs;
};

/// C-tree cell: ccmorph copies a randomly placed BST into a subtree-
/// clustered, colored layout (the persistent CTree re-adopts the source
/// each time, the paper's periodic re-morph), then searches it natively
/// and simulates a sample of the searches. Source and copy fit the host
/// L2 together, so the cell times ccmorph and search rather than the
/// host's shared memory system: with a 64K-node tree, neighbours' load
/// moved its gated time by 20% between runs. tree-replay searches
/// a tree far larger than the host caches.
class MorphSearch {
public:
  static constexpr uint64_t Nodes = (1 << 14) - 1;
  static constexpr size_t Searches = 4000;
  static constexpr size_t SimSearches = 500;

  explicit MorphSearch(uint64_t Seed)
      : Config(sim::HierarchyConfig::ultraSparcE5000()),
        Source(trees::BinarySearchTree::build(Nodes, LayoutScheme::Random,
                                              Seed)),
        Keys(makeKeys(Seed + 1, Nodes, Searches)),
        Hits(oddKeys(Keys, Searches)), SimHits(oddKeys(Keys, SimSearches)),
        Tree(CacheParams::fromHierarchy(Config)) {
    // The sample's simulated cost on the unreorganized tree; the C-tree
    // must beat it (the paper's Fig. 5 ordering).
    sim::MemoryHierarchy M(Config);
    sim::SimAccess A(M);
    SetupOk = searchAll(Source, Keys, SimSearches, A) == SimHits;
    SourceCycles = M.stats().totalCycles();
  }

  bool setupOk() const { return SetupOk; }

  OpReport run(StageClock &Clock) {
    OpReport R;
    Clock.start();
    Tree.adopt(Source.root());
    sim::NativeAccess A;
    R.NativeAnswer = searchAll(Tree, Keys, Searches, A);
    R.NativeMs = Clock.lapMs();
    Trace.clear();
    sim::RecordAccess Rec(Trace);
    R.SimAnswer = searchAll(Tree, Keys, SimSearches, Rec);
    padTail(Rec);
    Trace.seal();
    sim::MemoryHierarchy M(Config);
    M.replay(Trace.view());
    R.SimMs = Clock.lapMs();
    R.Sim = M.stats();
    R.TraceRecords = Trace.records();
    R.TraceBytes = Trace.bytes();
    R.MorphNodes = Tree.morphStats().NodeCount;
    return R;
  }

  bool check(const OpReport &R) const {
    return R.NativeAnswer == Hits && R.SimAnswer == SimHits &&
           R.Sim.isConsistent() && R.Sim.totalCycles() < SourceCycles &&
           R.MorphNodes == Nodes && trees::verifyBst(Tree.root(), Nodes);
  }

private:
  sim::HierarchyConfig Config;
  trees::BinarySearchTree Source;
  std::vector<uint32_t> Keys;
  uint64_t Hits;
  uint64_t SimHits;
  trees::CTree Tree;
  sim::TraceBuffer Trace;
  uint64_t SourceCycles = 0;
  bool SetupOk = false;
};

/// Host-speed probe, timed after every operation. Neighbours on a shared
/// host also slow whole runs, for tens of seconds at a time: mostly
/// through the caches, by up to 1.6x on health, which moves even the
/// gated quantile between runs. The probe slows with them, so scaling by
/// it cuts the run-to-run spread of the gated times about in half. It
/// is a pointer chase along a random cycle through a 1 MiB table, which
/// the modeled workloads resemble and which fits the host L2 (2 MiB). A
/// first, untimed pass refills the lines the timed pass reads, so no
/// operation's cache footprint changes the timed cost; it calls nothing
/// in the library, so no change there changes it either.
class SpeedProbe {
public:
  SpeedProbe() : Next(1 << 18) {
    std::vector<uint32_t> Order(Next.size());
    for (uint32_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    Xoshiro256 Rng(0x5eed);
    for (size_t I = Order.size() - 1; I > 0; --I)
      std::swap(Order[I], Order[Rng.nextBounded(I + 1)]);
    for (size_t I = 0; I < Order.size(); ++I)
      Next[Order[I]] = Order[(I + 1) % Order.size()];
  }

  /// Warms, then times one chase; returns its wall time in ms.
  double runMs() {
    Sink = chase();
    Timer T;
    Sink = chase();
    return T.elapsedMs();
  }

private:
  /// Not inlined and cache-line aligned so its code placement does not
  /// move with the rest of the binary.
  [[gnu::noinline, gnu::aligned(64)]] uint32_t chase() const {
    uint32_t P = 0;
    for (uint32_t I = 0; I < ProbeSteps; ++I)
      P = Next[P];
    return P;
  }

  std::vector<uint32_t> Next;
  volatile uint32_t Sink = 0;
};

/// Value at quantile \p Q (nearest rank) of \p Values.
double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = size_t(Q * double(Values.size() - 1) + 0.5);
  return Values[std::min(Rank, Values.size() - 1)];
}

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

/// ccmalloc allocations so far that took the fast and the slow path
/// (program-side registry counters).
struct HeapPaths {
  uint64_t Fast = 0;
  uint64_t Slow = 0;
};

HeapPaths heapPaths() {
  HeapPaths P;
  for (const metrics::CounterSnapshot &C : metrics::snapshot().Counters) {
    if (C.Name == "ccmalloc.alloc_fast" || C.Name == "ccmalloc.near_fast")
      P.Fast += C.Value;
    else if (C.Name == "ccmalloc.alloc_slow" || C.Name == "ccmalloc.near_slow")
      P.Slow += C.Value;
  }
  return P;
}

double peakRssMb() {
  struct rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

struct Metric {
  const char *Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name, Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
}

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
};

/// Times SetupRepeats set-ups of a Work in a child process and appends
/// the times in seconds to \p Out. Returns false if the child could not
/// run them all or a set-up failed its own check.
template <typename Work>
bool timeSetupsInChild(uint64_t Seed, std::vector<double> &Out) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return false;
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fd[0]);
    close(Fd[1]);
    return false;
  }
  if (Pid == 0) {
    close(Fd[0]);
    std::unique_ptr<Work> W;
    for (int I = 0; I < SetupRepeats; ++I) {
      W.reset();
      Timer T;
      W = std::make_unique<Work>(Seed);
      double Sec = T.elapsedSec();
      if (!W->setupOk() || write(Fd[1], &Sec, sizeof(Sec)) != sizeof(Sec))
        _exit(1);
    }
    _exit(0);
  }
  close(Fd[1]);
  int Got = 0;
  for (double Sec; read(Fd[0], &Sec, sizeof(Sec)) == sizeof(Sec); ++Got)
    Out.push_back(Sec);
  close(Fd[0]);
  int Status = 0;
  return waitpid(Pid, &Status, 0) == Pid && WIFEXITED(Status) &&
         WEXITSTATUS(Status) == 0 && Got == SetupRepeats;
}

template <typename Work> int measure(const Args &A) {
  std::vector<double> SetupSec;
  bool SetupOk = true;
  for (int I = 0; I < SetupProcesses; ++I)
    SetupOk &= timeSetupsInChild<Work>(A.Seed, SetupSec);
  auto W = std::make_unique<Work>(A.Seed);
  SetupOk &= W->setupOk();

  StageClock Clock(A.Trace);
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  auto RunOne = [&](double &Ms) {
    Timer T;
    OpReport R = W->run(Clock);
    Ms = T.elapsedMs();
    ++Attempted;
    Failed += !W->check(R);
    return R;
  };

  SpeedProbe Probe;
  double Ms = 0.0;
  for (Timer Warm; Warm.elapsedSec() < WarmupSeconds;) {
    RunOne(Ms);
    Probe.runMs();
  }

  HeapPaths Before = A.Trace ? heapPaths() : HeapPaths();
  std::vector<double> OpMs, ProbeMs, NativeMs, SimMs;
  sim::SimStats Sim;
  double Records = 0, Bytes = 0, MorphNodes = 0, AllocCalls = 0,
         NearCalls = 0, SameBlock = 0;
  Timer Window;
  do {
    OpReport R = RunOne(Ms);
    OpMs.push_back(Ms);
    ProbeMs.push_back(Probe.runMs());
    NativeMs.push_back(R.NativeMs);
    SimMs.push_back(R.SimMs);
    Sim += R.Sim;
    Records += double(R.TraceRecords);
    Bytes += double(R.TraceBytes);
    MorphNodes += double(R.MorphNodes);
    AllocCalls += double(R.AllocCalls);
    NearCalls += double(R.NearCalls);
    SameBlock += double(R.SameBlock);
  } while (Window.elapsedSec() < A.Seconds);

  const double Ops = double(OpMs.size());
  const double Refs = double(Sim.memoryReferences());
  const double ProbeGated = quantile(ProbeMs, GatedQuantile);
  // Host times at the reference host's quiet speed (see SpeedProbe).
  const double Scale = ProbeRefMs / ProbeGated;
  std::vector<Metric> Metrics;
  if (A.Trace) {
    HeapPaths After = heapPaths();
    double Fast = double(After.Fast - Before.Fast);
    double Slow = double(After.Slow - Before.Slow);
    double SimMsGated = Scale * quantile(SimMs, GatedQuantile);
    Metrics = {
        {"op_ms_p50", Scale * quantile(OpMs, 0.5), "ms"},
        {"op_ms_p99", Scale * quantile(OpMs, 0.99), "ms"},
        {"traced_op_ms_p1", Scale * quantile(OpMs, GatedQuantile), "ms"},
        {"probe_ms_p1", ProbeGated, "ms"},
        {"native_ms_p1", Scale * quantile(NativeMs, GatedQuantile), "ms"},
        {"sim_ms_p1", SimMsGated, "ms"},
        {"sim_ns_per_ref", ratio(SimMsGated * 1e6, Refs / Ops), "ns"},
        {"sim_refs_per_op", ratio(Refs, Ops), "count"},
        {"sim_l1_miss_pct", 100.0 * ratio(double(Sim.L1Misses), Refs), "%"},
        {"sim_l2_miss_pct", 100.0 * ratio(double(Sim.L2Misses), Refs), "%"},
        {"sim_tlb_miss_pct", 100.0 * ratio(double(Sim.TlbMisses), Refs), "%"},
        {"trace_bytes_per_record", ratio(Bytes, Records), "bytes"},
        {"morph_nodes_per_op", ratio(MorphNodes, Ops), "count"},
        {"ccmalloc_calls_per_op", ratio(AllocCalls, Ops), "count"},
        {"ccmalloc_fast_pct", 100.0 * ratio(Fast, Fast + Slow), "%"},
        {"ccmalloc_same_block_pct", 100.0 * ratio(SameBlock, NearCalls), "%"},
    };
  } else {
    Metrics = {
        {"op_ms_p1", Scale * quantile(OpMs, GatedQuantile), "ms"},
        {"setup_s", Scale * quantile(SetupSec, 0.5), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_cycles_per_ref", ratio(double(Sim.totalCycles()), Refs),
         "cycles"},
    };
  }
  printResult(SetupOk && Failed == 0, Attempted, Failed, Metrics);
  return 0;
}

bool parseArgs(int Argc, char **Argv, Args &Out) {
  bool HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      Out.Workload = Value;
    } else if (Flag == "--seed") {
      Out.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = End != Value && *End == '\0';
    } else if (Flag == "--seconds") {
      Out.Seconds = std::strtod(Value, &End);
      if (End == Value || *End != '\0')
        return false;
    } else if (Flag == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        return false;
      Out.Trace = Value[0] == '1';
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && HaveSeed && !Out.Workload.empty() &&
         Out.Seconds > 0.0 && Out.Seconds <= 600.0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: perfbench --workload "
                         "<tree-replay|health-churn|morph-search> --seed <n> "
                         "--seconds <s> [--trace 0|1]\n");
    return 2;
  }
  if (A.Workload == "tree-replay")
    return measure<TreeReplay>(A);
  if (A.Workload == "health-churn")
    return measure<HealthChurn>(A);
  if (A.Workload == "morph-search")
    return measure<MorphSearch>(A);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               A.Workload.c_str());
  return 2;
}
