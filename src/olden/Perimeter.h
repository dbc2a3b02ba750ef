//===- olden/Perimeter.h - Olden perimeter benchmark -----------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Olden `perimeter`: computes the perimeter of the black region in a
/// binary image represented as a quadtree (Table 2: 4K x 4K image). The
/// image is a procedurally-defined disk; the quadtree is built once
/// (preorder, the dominant traversal order) and then traversed with
/// Samet's neighbor-finding algorithm, which walks *up* parent pointers
/// and back down — the reason perimeter nodes carry parent pointers and
/// the reason ccmorph must rewrite them (the adapter's HasParent).
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OLDEN_PERIMETER_H
#define CCL_OLDEN_PERIMETER_H

#include "olden/OldenCommon.h"

namespace ccl::olden {

struct PerimeterConfig {
  /// Image is 2^Levels x 2^Levels pixels; 12 = the paper's 4K x 4K.
  unsigned Levels = 10;
  /// Perimeter-computation passes (amortizes the build phase).
  unsigned Iterations = 3;
};

/// Runs perimeter under \p V. Simulated when \p Sim is non-null.
BenchResult runPerimeter(const PerimeterConfig &Config, Variant V,
                         const sim::HierarchyConfig *Sim);

} // namespace ccl::olden

#endif // CCL_OLDEN_PERIMETER_H
