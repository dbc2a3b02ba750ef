//===- olden/TreeAdd.h - Olden treeadd benchmark ---------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Olden `treeadd`: builds a complete binary tree at program start-up
/// and repeatedly sums the values stored in its nodes (Table 2: 256K
/// nodes, 4MB). The tree is created in the dominant traversal order
/// (preorder), which is why the paper finds only modest gains for
/// cache-conscious placement here — the base layout is already decent.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OLDEN_TREEADD_H
#define CCL_OLDEN_TREEADD_H

#include "olden/OldenCommon.h"

namespace ccl::olden {

struct TreeAddConfig {
  /// Tree has 2^Levels - 1 nodes; 18 levels ~ 256K nodes (Table 2).
  unsigned Levels = 18;
  /// Number of full-tree summation passes; the paper's measured region
  /// is traversal-dominated, so several passes amortize construction.
  unsigned Iterations = 8;
};

/// Runs treeadd under \p V. Simulated when \p Sim is non-null, native
/// (wall-clock) otherwise.
BenchResult runTreeAdd(const TreeAddConfig &Config, Variant V,
                       const sim::HierarchyConfig *Sim);

} // namespace ccl::olden

#endif // CCL_OLDEN_TREEADD_H
