//===- olden/Health.h - Olden health benchmark -----------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Olden `health`: discrete-time simulation of the Colombian health-care
/// system (Table 2: max level 3, 3000 time steps). A 4-ary tree of
/// villages, each with a hospital holding doubly-linked *waiting*,
/// *assess*, and *inside* patient lists — the paper's Figure 4 shows
/// exactly this `addList` being converted to ccmalloc. Patients are
/// generated at leaf villages, treated locally or referred up the tree,
/// so list cells are continually added and removed.
///
/// The ccmorph variants periodically reorganize every patient list (the
/// paper: "the cache-conscious version periodically invoked ccmorph to
/// reorganize the lists").
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OLDEN_HEALTH_H
#define CCL_OLDEN_HEALTH_H

#include "olden/OldenCommon.h"

namespace ccl::olden {

struct HealthConfig {
  /// Depth of the village tree (level 3 -> 85 villages).
  unsigned MaxLevel = 3;
  /// Simulated time steps.
  unsigned Steps = 3000;
  /// ccmorph reorganization period (steps) for the morph variants.
  unsigned MorphInterval = 500;
  /// RNG seed for patient generation.
  uint64_t Seed = 0x4ea17bULL;
};

/// Runs health under \p V. Simulated when \p Sim is non-null.
BenchResult runHealth(const HealthConfig &Config, Variant V,
                      const sim::HierarchyConfig *Sim);

} // namespace ccl::olden

#endif // CCL_OLDEN_HEALTH_H
