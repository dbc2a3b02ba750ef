//===- support/Timer.h - Wall-clock timing ---------------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal steady-clock stopwatch for native timing measurements (the
/// paper's Fig. 5 reports microseconds per search on real hardware).
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SUPPORT_TIMER_H
#define CCL_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace ccl {

/// Steady-clock stopwatch. Construction starts the clock.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  void restart() { Start = Clock::now(); }

  /// Elapsed time in nanoseconds since construction or restart().
  uint64_t elapsedNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Start)
            .count());
  }

  double elapsedMs() const { return static_cast<double>(elapsedNs()) / 1e6; }
  double elapsedSec() const { return static_cast<double>(elapsedNs()) / 1e9; }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

} // namespace ccl

#endif // CCL_SUPPORT_TIMER_H
