//===- raytrace/Raytrace.cpp - Implicit octree ray caster -------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// RADIANCE "uses explicit knowledge of the structure's layout to
// eliminate pointers, much like an implicit heap, and it lays out this
// structure in depth-first order" (paper §4.3). This octree mirrors
// RADIANCE's representation: the tree is an array of 4-byte entries,
// eight per node group (32 bytes); a positive entry is the offset of a
// child group, a negative entry indexes a leaf item run, zero is empty.
// Cube geometry is recomputed during descent, exactly like RADIANCE.
//
// The layout freedom is the placement of the 32-byte groups: depth-first
// creation order (the base), or subtree clustering — two groups per
// 64-byte L2 block — with optional coloring: the paper's transformation
// of RADIANCE's octree.
//
//===----------------------------------------------------------------------===//

#include "raytrace/Raytrace.h"

#include "core/ClusterOrder.h"
#include "core/OffsetLayout.h"
#include "sim/AccessPolicy.h"
#include "support/Align.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

using namespace ccl;
using namespace ccl::raytrace;

namespace {

/// A group is eight consecutive 4-byte entries (32 bytes): entry > 0 is
/// the child group's byte offset divided by GroupBytes, entry < 0 is
/// -(leaf-run index + 1), entry == 0 is an empty octant.
constexpr uint32_t GroupBytes = 32;

struct LeafRun {
  uint32_t Begin;
  uint32_t Count;
};

struct Ray {
  double OX, OY, OZ;
  double DX, DY, DZ;
};

struct Cube {
  double X, Y, Z, Size;
};

bool sphereInCube(const Sphere &S, const Cube &C) {
  // Conservative test: sphere bounding box vs cube.
  return S.X + S.R >= C.X && S.X - S.R <= C.X + C.Size && S.Y + S.R >= C.Y &&
         S.Y - S.R <= C.Y + C.Size && S.Z + S.R >= C.Z &&
         S.Z - S.R <= C.Z + C.Size;
}

/// Slab test; returns true with entry distance in \p TNear if the ray
/// hits the cube within [0, Best).
bool rayCube(const Ray &R, const Cube &C, double Best, double &TNear) {
  double T0 = 0.0;
  double T1 = Best;
  const double Origin[3] = {R.OX, R.OY, R.OZ};
  const double Dir[3] = {R.DX, R.DY, R.DZ};
  const double Lo[3] = {C.X, C.Y, C.Z};
  for (int Axis = 0; Axis < 3; ++Axis) {
    double Hi = Lo[Axis] + C.Size;
    if (std::abs(Dir[Axis]) < 1e-12) {
      if (Origin[Axis] < Lo[Axis] || Origin[Axis] > Hi)
        return false;
      continue;
    }
    double Inv = 1.0 / Dir[Axis];
    double TA = (Lo[Axis] - Origin[Axis]) * Inv;
    double TB = (Hi - Origin[Axis]) * Inv;
    if (TA > TB)
      std::swap(TA, TB);
    T0 = std::max(T0, TA);
    T1 = std::min(T1, TB);
    if (T0 > T1)
      return false;
  }
  TNear = T0;
  return true;
}

/// Ray-sphere intersection; returns smallest positive t or -1.
double raySphere(const Ray &R, const Sphere &S) {
  double OX = R.OX - S.X;
  double OY = R.OY - S.Y;
  double OZ = R.OZ - S.Z;
  double B = OX * R.DX + OY * R.DY + OZ * R.DZ;
  double C = OX * OX + OY * OY + OZ * OZ - S.R * S.R;
  double Disc = B * B - C;
  if (Disc < 0)
    return -1.0;
  double Root = std::sqrt(Disc);
  double T = -B - Root;
  if (T < 1e-9)
    T = -B + Root;
  return T < 1e-9 ? -1.0 : T;
}

Cube kidCube(const Cube &C, unsigned I) {
  double Half = C.Size / 2;
  return {C.X + (I & 1 ? Half : 0), C.Y + (I & 2 ? Half : 0),
          C.Z + (I & 4 ? Half : 0), Half};
}

Ray makeRay(Xoshiro256 &Rng) {
  // Origin on the z = -0.5 plane in front of the cube, direction toward
  // a random point inside it: camera-like coverage of the scene.
  Ray R;
  R.OX = Rng.nextDouble();
  R.OY = Rng.nextDouble();
  R.OZ = -0.5;
  double TX = Rng.nextDouble();
  double TY = Rng.nextDouble();
  double TZ = Rng.nextDouble();
  double DX = TX - R.OX;
  double DY = TY - R.OY;
  double DZ = TZ - R.OZ;
  double Len = std::sqrt(DX * DX + DY * DY + DZ * DZ);
  R.DX = DX / Len;
  R.DY = DY / Len;
  R.DZ = DZ / Len;
  return R;
}

/// Build-time node; KidsGroup indexes the Groups table.
struct TempNode {
  int64_t KidsGroup = -1;
  uint32_t ItemBegin = 0;
  uint32_t ItemCount = 0;
};


template <typename Access> class RaytraceRun {
public:
  RaytraceRun(const RaytraceConfig &Config, RtLayout Layout,
              const sim::HierarchyConfig *Sim, Access &A)
      : Config(Config), Layout(Layout), A(A),
        Params(Sim ? CacheParams::fromHierarchy(*Sim)
                   : CacheParams::fromCache(
                         sim::CacheConfig{1024 * 1024, 64, 2, 6})) {
    // Every descent reuses only the top two or three octree levels, so a
    // modest hot region (1/8th of the cache) protects them without
    // starving the much larger cold working set.
    Params.HotSets = Params.CacheSets / 8;
  }

  RtResult run() {
    Spheres = makeScene(Config.NumSpheres, Config.Seed);
    Cube Bounds{0.0, 0.0, 0.0, 1.0};
    std::vector<uint32_t> All(Spheres.size());
    for (uint32_t I = 0; I < All.size(); ++I)
      All[I] = I;
    int64_t RootIdx = build(All, Bounds, 0);
    materialize(RootIdx);
    packScene();

    uint64_t Hits = 0;
    uint64_t TSum = 0;
    Xoshiro256 Rng(Config.Seed ^ 0xabcdefULL);
    for (unsigned I = 0; I < Config.NumRays; ++I) {
      Ray R = makeRay(Rng);
      double Best = 1e30;
      if (RootGroup >= 0) {
        march(Bounds, R, Best);
      } else {
        // Degenerate scene: the root itself is a leaf.
        traceLeaf(RootLeaf, R, Best);
      }
      if (Best < 1e29) {
        ++Hits;
        TSum += static_cast<uint64_t>(Best * 4096.0);
      }
    }

    RtResult Result;
    Result.Checksum = Hits * 0x100000001ULL + TSum;
    Result.OctreeNodes = Temp.size();
    return Result;
  }

private:
  int64_t build(const std::vector<uint32_t> &Items, const Cube &C,
                unsigned Depth) {
    int64_t Index = static_cast<int64_t>(Temp.size());
    Temp.push_back(TempNode());
    // Region partitioning work (bounding-box tests per item).
    A.tick(2 * Items.size() + 5);
    if (Items.size() <= Config.LeafCapacity || Depth >= Config.MaxDepth) {
      Temp[Index].ItemBegin = static_cast<uint32_t>(ItemPool.size());
      Temp[Index].ItemCount = static_cast<uint32_t>(Items.size());
      ItemPool.insert(ItemPool.end(), Items.begin(), Items.end());
      return Index;
    }
    int64_t Group = static_cast<int64_t>(Groups.size());
    Groups.emplace_back();
    Temp[Index].KidsGroup = Group;
    for (unsigned I = 0; I < 8; ++I) {
      Cube KC = kidCube(C, I);
      std::vector<uint32_t> KidItems;
      for (uint32_t Item : Items)
        if (sphereInCube(Spheres[Item], KC))
          KidItems.push_back(Item);
      // Groups vector may reallocate during recursion: store after.
      int64_t Kid = build(KidItems, KC, Depth + 1);
      Groups[Group][I] = Kid;
    }
    return Index;
  }

  /// Each group's byte offset in the region. The groups are ordered
  /// through the shared planner — Base keeps depth-first creation order
  /// (the preorder of the group tree), the clustered layouts use subtree
  /// clustering (§2.1) — and placed through \p Plan.
  std::vector<uint32_t> placeGroups(int64_t RootIdx, OffsetLayout &Plan) {
    // Cluster whole subtrees at page granularity: an octree's branching
    // factor of 8 defeats block-sized clusters (k = 2 groups), but a
    // page holds a depth-2..3 subtree, so every descent touches a few
    // pages instead of one per level — and within the page, parents sit
    // beside their children, so block sharing falls out as well.
    size_t K = std::max<size_t>(2, Params.PageBytes / GroupBytes);
    std::vector<uint32_t> GroupOffset(Groups.size());
    const int64_t TopGroup = Temp[RootIdx].KidsGroup;
    ClusterOrder<int64_t> Order;
    Order.plan({&TopGroup, TopGroup >= 0 ? 1u : 0u},
               Layout == RtLayout::Base ? LayoutScheme::DepthFirst
                                        : LayoutScheme::Subtree,
               K, [&](int64_t G, auto &&Visit) {
                 for (unsigned I = 0; I < 8; ++I)
                   if (Temp[Groups[G][I]].KidsGroup >= 0)
                     Visit(I, Temp[Groups[G][I]].KidsGroup);
               });
    for (size_t C = 0; C < Order.clusters(); ++C) {
      size_t Begin = Order.clusterBegin(C);
      size_t Size = Order.clusterEnd(C) - Begin;
      bool WasHot = false;
      uint64_t Offset = Plan.place(Size * GroupBytes, WasHot);
      for (size_t I = 0; I < Size; ++I) {
        uint64_t GO = Offset + I * GroupBytes;
        assert(GO / GroupBytes < (1ULL << 31) &&
               "octree exceeds 31-bit group offsets");
        GroupOffset[Order.items()[Begin + I].Node] = static_cast<uint32_t>(GO);
      }
    }
    return GroupOffset;
  }

  /// Places the groups, then fills the region of 4-byte entries.
  void materialize(int64_t RootIdx) {
    OffsetLayout Plan(Params, /*Color=*/Layout == RtLayout::ClusterColor);
    std::vector<uint32_t> GroupOffset = placeGroups(RootIdx, Plan);
    // Reorganization cost: the implicit octree is reorganized with an
    // index permutation and one copy pass (no pointer remapping table).
    if (Layout != RtLayout::Base)
      A.tick(Groups.size() * 10);

    Base = allocateAligned(Plan.regionAlign(Params), Plan.regionBytes());

    // Fill entries: +childGroupOffset/32, -(leafRun+1), or 0.
    auto entryFor = [&](int64_t TempIdx) -> int32_t {
      const TempNode &N = Temp[TempIdx];
      if (N.KidsGroup >= 0)
        return static_cast<int32_t>(GroupOffset[N.KidsGroup] / GroupBytes);
      if (N.ItemCount == 0)
        return 0;
      LeafRuns.push_back({N.ItemBegin, N.ItemCount});
      return -static_cast<int32_t>(LeafRuns.size());
    };
    for (size_t G = 0; G < Groups.size(); ++G) {
      auto *Entries =
          reinterpret_cast<int32_t *>(Base.get() + GroupOffset[G]);
      for (unsigned I = 0; I < 8; ++I)
        Entries[I] = entryFor(Groups[G][I]);
      A.touch(Entries, GroupBytes); // Construction writes.
    }

    if (Temp[RootIdx].KidsGroup >= 0) {
      RootGroup = GroupOffset[Temp[RootIdx].KidsGroup];
    } else {
      RootGroup = -1;
      RootLeaf = {Temp[RootIdx].ItemBegin, Temp[RootIdx].ItemCount};
    }
  }

  /// Copies the arrays the rays read (the spheres, the item pool and the
  /// leaf runs) into one region aligned to the simulator's translation
  /// unit, as RADIANCE keeps its scene in one heap; each array starts on
  /// a 16-byte boundary, where malloc on 64-bit Linux would start it.
  /// Their simulated addresses then follow from the scene alone, not from
  /// where the host heap put the vectors that built them.
  void packScene() {
    constexpr uint64_t ArrayAlign = 16;
    uint64_t ItemsAt = alignUp(Spheres.size() * sizeof(Sphere), ArrayAlign);
    uint64_t RunsAt =
        alignUp(ItemsAt + ItemPool.size() * sizeof(uint32_t), ArrayAlign);
    Scene = allocateAligned(
        std::max<uint64_t>(Params.capacityBytes(), Params.PageBytes),
        RunsAt + LeafRuns.size() * sizeof(LeafRun));
    SceneSpheres = reinterpret_cast<Sphere *>(Scene.get());
    SceneItems = reinterpret_cast<uint32_t *>(Scene.get() + ItemsAt);
    SceneRuns = reinterpret_cast<LeafRun *>(Scene.get() + RunsAt);
    std::copy(Spheres.begin(), Spheres.end(), SceneSpheres);
    std::copy(ItemPool.begin(), ItemPool.end(), SceneItems);
    std::copy(LeafRuns.begin(), LeafRuns.end(), SceneRuns);
  }

  void traceLeaf(const LeafRun &Run, const Ray &R, double &Best) {
    for (uint32_t I = 0; I < Run.Count; ++I) {
      uint32_t Item = A.load(&SceneItems[Run.Begin + I]);
      A.touch(&SceneSpheres[Item], sizeof(Sphere));
      double T = raySphere(R, SceneSpheres[Item]);
      A.tick(15);
      if (T > 0 && T < Best)
        Best = T;
    }
  }

  /// Distance at which the ray leaves \p C (assumes the point at the
  /// current parameter is inside the cube).
  static double cubeExit(const Ray &R, const Cube &C) {
    double Exit = 1e30;
    const double Origin[3] = {R.OX, R.OY, R.OZ};
    const double Dir[3] = {R.DX, R.DY, R.DZ};
    const double Lo[3] = {C.X, C.Y, C.Z};
    for (int Axis = 0; Axis < 3; ++Axis) {
      if (std::abs(Dir[Axis]) < 1e-12)
        continue;
      double Bound = Dir[Axis] > 0 ? Lo[Axis] + C.Size : Lo[Axis];
      Exit = std::min(Exit, (Bound - Origin[Axis]) / Dir[Axis]);
    }
    return Exit;
  }

  /// RADIANCE-style traversal: locate the voxel containing the current
  /// ray point by descending from the root (one 4-byte entry load per
  /// level — the repeated root descents are what coloring accelerates),
  /// test the leaf's items, then advance the ray past the voxel.
  void march(const Cube &Bounds, const Ray &R, double &Best) {
    double TNear;
    if (!rayCube(R, Bounds, Best, TNear))
      return;
    double T = TNear + 1e-9;
    for (int Step = 0; Step < 4096; ++Step) {
      double PX = R.OX + T * R.DX;
      double PY = R.OY + T * R.DY;
      double PZ = R.OZ + T * R.DZ;
      if (PX < Bounds.X || PX > Bounds.X + Bounds.Size || PY < Bounds.Y ||
          PY > Bounds.Y + Bounds.Size || PZ < Bounds.Z ||
          PZ > Bounds.Z + Bounds.Size)
        return; // Left the scene.
      if (T >= Best)
        return; // A closer hit already exists.

      // Point-location descent.
      Cube C = Bounds;
      uint32_t Group = static_cast<uint32_t>(RootGroup);
      int32_t E;
      for (;;) {
        double Half = C.Size / 2;
        unsigned Octant = (PX >= C.X + Half ? 1u : 0u) |
                          (PY >= C.Y + Half ? 2u : 0u) |
                          (PZ >= C.Z + Half ? 4u : 0u);
        const auto *Entries =
            reinterpret_cast<const int32_t *>(Base.get() + Group);
        E = A.load(&Entries[Octant]);
        A.tick(6);
        C = kidCube(C, Octant);
        if (E <= 0)
          break; // Leaf voxel (possibly empty).
        Group = static_cast<uint32_t>(E) * GroupBytes;
      }
      if (E < 0) {
        LeafRun Run = A.load(&SceneRuns[size_t(-E) - 1]);
        traceLeaf(Run, R, Best);
      }
      // Advance just past this voxel.
      double Exit = cubeExit(R, C);
      A.tick(8);
      if (Exit <= T)
        Exit = T; // Numerical guard.
      T = Exit + 1e-9;
    }
  }

  const RaytraceConfig &Config;
  RtLayout Layout;
  Access &A;
  CacheParams Params;
  std::vector<Sphere> Spheres;
  std::vector<uint32_t> ItemPool;
  std::vector<TempNode> Temp;
  std::vector<std::array<int64_t, 8>> Groups;
  std::vector<LeafRun> LeafRuns;
  AlignedBuffer Base;
  /// The region the rays read the scene from (packScene).
  AlignedBuffer Scene;
  Sphere *SceneSpheres = nullptr;
  uint32_t *SceneItems = nullptr;
  LeafRun *SceneRuns = nullptr;
  int64_t RootGroup = -1;
  LeafRun RootLeaf{0, 0};
};

} // namespace

std::vector<Sphere> ccl::raytrace::makeScene(unsigned NumSpheres,
                                             uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  std::vector<Sphere> Spheres;
  Spheres.reserve(NumSpheres);
  for (unsigned I = 0; I < NumSpheres; ++I) {
    Sphere S;
    // Spheres stay strictly inside the unit cube so the octree's root
    // bounds cover every primitive entirely.
    S.R = 0.002 + Rng.nextDouble() * 0.01;
    S.X = S.R + Rng.nextDouble() * (1.0 - 2 * S.R);
    S.Y = S.R + Rng.nextDouble() * (1.0 - 2 * S.R);
    S.Z = S.R + Rng.nextDouble() * (1.0 - 2 * S.R);
    Spheres.push_back(S);
  }
  return Spheres;
}

RtResult ccl::raytrace::runRaytrace(const RaytraceConfig &Config,
                                    RtLayout Layout,
                                    const sim::HierarchyConfig *Sim) {
  if (Sim) {
    sim::MemoryHierarchy Hierarchy(*Sim);
    sim::SimAccess A(Hierarchy);
    RaytraceRun<sim::SimAccess> Run(Config, Layout, Sim, A);
    RtResult Result = Run.run();
    Result.Stats = Hierarchy.stats();
    return Result;
  }
  sim::NativeAccess A;
  Timer T;
  RaytraceRun<sim::NativeAccess> Run(Config, Layout, nullptr, A);
  RtResult Result = Run.run();
  Result.NativeSeconds = T.elapsedSec();
  return Result;
}

RtResult ccl::raytrace::runBruteForce(const RaytraceConfig &Config) {
  std::vector<Sphere> Spheres = makeScene(Config.NumSpheres, Config.Seed);
  Xoshiro256 Rng(Config.Seed ^ 0xabcdefULL);
  uint64_t Hits = 0;
  uint64_t TSum = 0;
  for (unsigned I = 0; I < Config.NumRays; ++I) {
    Ray R = makeRay(Rng);
    double Best = 1e30;
    for (const Sphere &S : Spheres) {
      double T = raySphere(R, S);
      if (T > 0 && T < Best)
        Best = T;
    }
    if (Best < 1e29) {
      ++Hits;
      TSum += static_cast<uint64_t>(Best * 4096.0);
    }
  }
  RtResult Result;
  Result.Checksum = Hits * 0x100000001ULL + TSum;
  return Result;
}
