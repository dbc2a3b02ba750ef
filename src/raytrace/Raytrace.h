//===- raytrace/Raytrace.h - Octree ray caster (mini-RADIANCE) -*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature RADIANCE stand-in (paper §4.3): RADIANCE's primary data
/// structure is an octree over the modeled scene, traversed heavily
/// during ray tracing. Here, an octree over a synthetic sphere scene is
/// built in preorder (construction order) and can be reorganized with
/// ccmorph — clustering, or clustering + coloring — before a ray-casting
/// phase. As in the paper, reported results include the reorganization
/// overhead.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_RAYTRACE_RAYTRACE_H
#define CCL_RAYTRACE_RAYTRACE_H

#include "sim/CacheConfig.h"
#include "sim/SimStats.h"

#include <cstdint>
#include <vector>

namespace ccl::raytrace {

/// A sphere primitive (32 bytes).
struct Sphere {
  double X;
  double Y;
  double Z;
  double R;
};

/// Deterministic random scene in the unit cube.
std::vector<Sphere> makeScene(unsigned NumSpheres, uint64_t Seed);

/// Octree layout under test.
enum class RtLayout {
  Base,         ///< Construction (preorder) order.
  Cluster,      ///< Subtree clustering only (the shared ClusterOrder).
  ClusterColor, ///< Subtree clustering + coloring (OffsetLayout).
};

inline const char *rtLayoutName(RtLayout Layout) {
  switch (Layout) {
  case RtLayout::Base:
    return "base";
  case RtLayout::Cluster:
    return "clustering";
  case RtLayout::ClusterColor:
    return "clustering+coloring";
  }
  return "unknown";
}

struct RaytraceConfig {
  unsigned NumSpheres = 4000;
  unsigned NumRays = 100000;
  unsigned MaxDepth = 8;
  unsigned LeafCapacity = 4;
  uint64_t Seed = 0x5ceedbeefULL;
};

struct RtResult {
  sim::SimStats Stats;
  uint64_t Checksum = 0;
  uint64_t OctreeNodes = 0;
  double NativeSeconds = 0.0;
};

/// Builds the octree, applies \p Layout, casts the rays. Simulated when
/// \p Sim is non-null, native otherwise.
RtResult runRaytrace(const RaytraceConfig &Config, RtLayout Layout,
                     const sim::HierarchyConfig *Sim);

/// Same rays against the flat sphere list (no octree): correctness
/// oracle for tests.
RtResult runBruteForce(const RaytraceConfig &Config);

} // namespace ccl::raytrace

#endif // CCL_RAYTRACE_RAYTRACE_H
