//===- olden/Mst.h - Olden mst benchmark -----------------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Olden `mst`: computes a minimum spanning tree of a graph whose
/// adjacency structure is an array of chained hash tables (Table 2:
/// 512 nodes). The structure is built at start-up and never changes, so
/// ccmalloc (entry near its chain predecessor) and a one-shot ccmorph of
/// all chains both apply. Chains are short, so — as the paper observes —
/// coloring has little effect, but incorrect placement has a high
/// penalty.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OLDEN_MST_H
#define CCL_OLDEN_MST_H

#include "olden/OldenCommon.h"

namespace ccl::olden {

struct MstConfig {
  /// Graph vertices (Table 2: 512).
  unsigned NumVertices = 512;
  /// Edges per vertex (ring + chords keeps the graph connected).
  unsigned Degree = 16;
  uint64_t Seed = 0x357a9eULL;
};

/// Runs mst under \p V. Simulated when \p Sim is non-null.
BenchResult runMst(const MstConfig &Config, Variant V,
                   const sim::HierarchyConfig *Sim);

} // namespace ccl::olden

#endif // CCL_OLDEN_MST_H
