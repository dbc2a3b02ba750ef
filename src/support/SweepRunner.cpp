//===- support/SweepRunner.cpp - Parallel sweep-cell executor -------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "support/SweepRunner.h"

#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

using namespace ccl;

namespace {
/// Grid-level counters.
struct SweepMetrics {
  metrics::Counter Runs = metrics::counter("sweep.runs");
  metrics::Counter SerialRuns = metrics::counter("sweep.serial_runs");
  metrics::Counter Cells = metrics::counter("sweep.cells");
  metrics::Histogram RunCells = metrics::histogram("sweep.run_cells");
};

const SweepMetrics &sweepMetrics() {
  static SweepMetrics M;
  return M;
}

/// First-exception capture shared by the workers of one run. The Armed
/// flag is the workers' cheap should-I-stop probe; the exception_ptr
/// itself is guarded by a mutex, so the first writer wins.
class ErrorSlot {
public:
  /// Records the in-flight exception if none was recorded yet.
  void capture() {
    std::lock_guard Lock(M);
    if (!First)
      First = std::current_exception();
    Armed.store(true, std::memory_order_relaxed);
  }

  /// Workers poll this to bail out early after any failure.
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// Rethrows the first captured exception, if any. Call after join().
  void rethrow() {
    std::lock_guard Lock(M);
    if (First)
      std::rethrow_exception(First);
  }

private:
  /// Guards First.
  std::mutex M;
  std::exception_ptr First;
  std::atomic<bool> Armed{false};
};
} // namespace

unsigned SweepRunner::defaultThreads() {
  if (const char *Env = std::getenv("CCL_SWEEP_THREADS")) {
    // from_chars takes no sign, whitespace or overflow; the whole string
    // must be consumed.
    const char *End = Env + std::strlen(Env);
    unsigned Value = 0;
    auto [Ptr, Ec] = std::from_chars(Env, End, Value);
    if (Ec == std::errc() && Ptr == End && Value > 0)
      return Value;
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : Hw;
}

SweepRunner::SweepRunner(unsigned Threads)
    : NumThreads(Threads == 0 ? defaultThreads() : Threads) {}

void SweepRunner::run(size_t Cells,
                      const std::function<void(size_t)> &Cell) const {
  const SweepMetrics &M = sweepMetrics();
  metrics::add(M.Runs);
  metrics::add(M.Cells, Cells);
  metrics::record(M.RunCells, Cells);
  unsigned Workers = unsigned(std::min<size_t>(NumThreads, Cells));
  if (Workers <= 1) {
    // Allocation-free serial path (also taken for a one-cell grid).
    metrics::add(M.SerialRuns);
    for (size_t I = 0; I < Cells; ++I)
      Cell(I);
    return;
  }

  // Self-scheduling over an atomic cursor: cells vary wildly in cost
  // (bigger caches simulate slower), so static partitioning would leave
  // workers idle; dynamic claiming keeps everyone busy until the grid
  // drains.
  std::atomic<size_t> NextCell{0};
  ErrorSlot Error;
  auto Worker = [&] {
    for (;;) {
      size_t I = NextCell.fetch_add(1, std::memory_order_relaxed);
      if (I >= Cells || Error.armed())
        return;
      try {
        Cell(I);
      } catch (...) {
        Error.capture();
        return;
      }
    }
  };

  std::vector<std::thread> Pool;
  Pool.reserve(Workers - 1);
  for (unsigned T = 1; T < Workers; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
  Error.rethrow();
}
