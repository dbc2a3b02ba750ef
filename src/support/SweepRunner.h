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
/// for CI and for forcing a serial reference run); see defaultThreads().
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
  void run(size_t Cells, const std::function<void(size_t)> &Cell) const;

  unsigned threads() const { return NumThreads; }

  /// Hardware concurrency (at least 1), overridden by CCL_SWEEP_THREADS
  /// when it holds a whole decimal in [1, UINT_MAX]; any other value is
  /// ignored.
  static unsigned defaultThreads();

private:
  unsigned NumThreads;
};

} // namespace ccl

#endif // CCL_SUPPORT_SWEEPRUNNER_H
