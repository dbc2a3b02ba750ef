//===- support/SweepRunner.h - Parallel sweep-cell executor ----*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small thread pool for the ablation benchmarks' (config x layout x
/// strategy) sweep grids. Every cell of a sweep is an independent,
/// deterministic simulation — it builds its own structures and drives its
/// own MemoryHierarchy — so cells can run concurrently with results
/// identical to a serial run. Cells write their results into
/// caller-preallocated slots indexed by cell number; presentation happens
/// serially afterwards, so tables come out byte-identical regardless of
/// the thread count.
///
/// The thread count defaults to std::thread::hardware_concurrency() and
/// can be pinned with the CCL_SWEEP_THREADS environment variable (useful
/// for CI and for forcing a serial reference run).
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SUPPORT_SWEEPRUNNER_H
#define CCL_SUPPORT_SWEEPRUNNER_H

#include <cstddef>
#include <functional>

namespace ccl {

/// Runs independent sweep cells on a pool of worker threads.
class SweepRunner {
public:
  /// \param Threads worker count; 0 means defaultThreads().
  explicit SweepRunner(unsigned Threads = 0);

  /// Invokes \p Cell(I) for every I in [0, Cells), distributing cells
  /// over the workers; blocks until all cells finished. Cells must be
  /// independent: they may share read-only inputs but must write only to
  /// their own result slot. A serial in-order run is used when the pool
  /// has a single thread (or a single cell); that path performs no
  /// allocation.
  void run(size_t Cells, const std::function<void(size_t)> &Cell) const {
    run(Cells, Cell, 1);
  }

  /// Like run(), but workers claim \p Chunk consecutive cells per grab
  /// of the shared atomic cursor (chunked self-scheduling). Larger
  /// chunks cut cursor contention and keep cells that touch adjacent
  /// state on the same worker; chunk 1 maximizes balance for wildly
  /// skewed cell costs. Scheduling stays dynamic either way — a worker
  /// stuck on an expensive chunk never idles the others.
  void run(size_t Cells, const std::function<void(size_t)> &Cell,
           size_t Chunk) const;

  /// Two dependent sweeps with a single thread spawn: every worker
  /// drains the phase-1 cells, waits at an internal barrier until phase
  /// 1 has fully completed, then drains the phase-2 cells. Semantically
  /// identical to two back-to-back run() calls — in particular, every
  /// phase-1 write happens-before every phase-2 cell — but the pool
  /// threads are spawned and joined only once, which matters for short
  /// phases on loaded machines where each wake-up costs a scheduling
  /// latency. Used by CcMorph's copy-then-fixup pass.
  void runPhases(size_t Cells1, const std::function<void(size_t)> &Phase1,
                 size_t Cells2, const std::function<void(size_t)> &Phase2,
                 size_t Chunk = 1) const;

  unsigned threads() const { return NumThreads; }

  /// True while the calling thread is executing a sweep cell. Used to
  /// keep parallelism single-level: code that can fan out internally
  /// (CcMorph::reorganizeParallel) runs serially when it is already
  /// inside a worker, instead of oversubscribing the machine.
  static bool inWorker();

  /// The calling thread's worker handle within the current run(): 0 for
  /// the caller thread (which doubles as worker 0, and for the serial
  /// path), 1..Workers-1 for pool threads. Stable for the duration of a
  /// run, so sharded consumers (CcAllocator::shardFor) can bind one
  /// shard per worker without a map lookup. Returns 0 outside any run.
  static unsigned workerId();

  /// Hardware concurrency, overridable via CCL_SWEEP_THREADS.
  static unsigned defaultThreads();

private:
  unsigned NumThreads;
};

} // namespace ccl

#endif // CCL_SUPPORT_SWEEPRUNNER_H
