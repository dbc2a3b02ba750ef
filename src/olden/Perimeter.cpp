//===- olden/Perimeter.cpp - Olden perimeter benchmark ----------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "olden/Perimeter.h"

#include "support/Reflect.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdint>

using namespace ccl;
using namespace ccl::olden;

namespace {

enum NodeColor : uint32_t { ColorWhite = 0, ColorBlack = 1, ColorGrey = 2 };

/// Child positions within the parent's quadrant.
enum Quadrant : uint32_t { NW = 0, NE = 1, SW = 2, SE = 3 };

enum Direction : uint32_t { North = 0, East = 1, South = 2, West = 3 };

struct QuadNode {
  uint32_t Color;
  uint32_t ChildType; // Which quadrant of the parent this node is.
  QuadNode *Parent;
  QuadNode *Kids[4];
};

struct QuadAdapter {
  static constexpr unsigned MaxKids = 4;
  static constexpr bool HasParent = true;
  QuadNode *getKid(QuadNode *N, unsigned I) const { return N->Kids[I]; }
  void setKid(QuadNode *N, unsigned I, QuadNode *Kid) const {
    N->Kids[I] = Kid;
  }
  void setParent(QuadNode *N, QuadNode *P) const { N->Parent = P; }
};

/// True if quadrant \p Q touches side \p D of its parent.
bool adjacent(Direction D, uint32_t Q) {
  switch (D) {
  case North:
    return Q == NW || Q == NE;
  case South:
    return Q == SW || Q == SE;
  case East:
    return Q == NE || Q == SE;
  case West:
    return Q == NW || Q == SW;
  }
  return false;
}

/// Mirrors quadrant \p Q across the axis perpendicular to \p D — the
/// quadrant met when stepping over that side.
uint32_t reflect(Direction D, uint32_t Q) {
  if (D == North || D == South) {
    // Vertical flip.
    switch (Q) {
    case NW:
      return SW;
    case NE:
      return SE;
    case SW:
      return NW;
    case SE:
      return NE;
    }
  }
  // Horizontal flip.
  switch (Q) {
  case NW:
    return NE;
  case NE:
    return NW;
  case SW:
    return SE;
  case SE:
    return SW;
  }
  return Q;
}

/// The two quadrants adjacent to each side, indexed by Direction
/// (needed by sumAdjacent).
constexpr uint32_t AdjacentQuadrants[4][2] = {
    {NW, NE}, // North
    {NE, SE}, // East
    {SW, SE}, // South
    {NW, SW}, // West
};

Direction opposite(Direction D) {
  switch (D) {
  case North:
    return South;
  case South:
    return North;
  case East:
    return West;
  case West:
    return East;
  }
  return North;
}

/// Procedural disk image: classifies the square [X, X+Size) x [Y, Y+Size)
/// against a disk centered in the image.
struct DiskImage {
  int64_t CenterX;
  int64_t CenterY;
  int64_t Radius;

  explicit DiskImage(unsigned Levels) {
    int64_t Dim = int64_t(1) << Levels;
    CenterX = Dim / 2;
    CenterY = Dim / 2;
    Radius = (Dim * 3) / 8;
  }

  NodeColor classify(int64_t X, int64_t Y, int64_t Size) const {
    // Nearest point of the square to the center.
    int64_t NearX = std::clamp(CenterX, X, X + Size);
    int64_t NearY = std::clamp(CenterY, Y, Y + Size);
    int64_t DxN = NearX - CenterX;
    int64_t DyN = NearY - CenterY;
    if (DxN * DxN + DyN * DyN > Radius * Radius)
      return ColorWhite;

    // Farthest corner of the square from the center.
    int64_t FarX = (CenterX - X > X + Size - CenterX) ? X : X + Size;
    int64_t FarY = (CenterY - Y > Y + Size - CenterY) ? Y : Y + Size;
    int64_t DxF = FarX - CenterX;
    int64_t DyF = FarY - CenterY;
    if (DxF * DxF + DyF * DyF <= Radius * Radius)
      return ColorBlack;

    if (Size == 1) {
      // Pixel: classify by center.
      int64_t Dx = 2 * X + 1 - 2 * CenterX;
      int64_t Dy = 2 * Y + 1 - 2 * CenterY;
      return (Dx * Dx + Dy * Dy <= 4 * Radius * Radius) ? ColorBlack
                                                        : ColorWhite;
    }
    return ColorGrey;
  }
};

template <typename Access> class PerimeterRun {
public:
  PerimeterRun(const PerimeterConfig &Config, Variant V,
               const sim::HierarchyConfig *Sim, Access &A)
      : Config(Config), V(V), A(A), Alloc(paramsFor(Sim), strategyFor(V)),
        Morph(paramsFor(Sim)), Image(Config.Levels),
        Greedy(V == Variant::SwPrefetch) {}

  BenchResult run() {
    int64_t Dim = int64_t(1) << Config.Levels;
    QuadNode *Root = buildTree(nullptr, NW, 0, 0, Dim);

    if (usesCcMorph(V)) {
      Root = Morph.reorganize(Root, morphOptionsFor(V));
      A.tick(Morph.stats().NodeCount * MorphPerNodeTicks);
    }

    uint64_t Perimeter = 0;
    for (unsigned I = 0; I < Config.Iterations; ++I)
      Perimeter = computePerimeter(Root, Dim);

    BenchResult Result;
    Result.Checksum = Perimeter;
    Result.Heap = Alloc.stats();
    Result.HeapFootprintBytes = Alloc.footprintBytes();
    if (usesCcMorph(V))
      Result.HeapFootprintBytes = Morph.stats().NodeCount * sizeof(QuadNode);
    return Result;
  }

private:
  /// Preorder construction — Olden's creation order.
  QuadNode *buildTree(QuadNode *Parent, uint32_t ChildType, int64_t X,
                      int64_t Y, int64_t Size) {
    NodeColor Color = Image.classify(X, Y, Size);
    A.tick(10); // Region classification arithmetic.
    auto *N = static_cast<QuadNode *>(
        benchAlloc(Alloc, V, sizeof(QuadNode), Parent, A));
    A.store(&N->Color, static_cast<uint32_t>(Color));
    A.store(&N->ChildType, ChildType);
    A.store(&N->Parent, Parent);
    for (auto &Kid : N->Kids)
      A.store(&Kid, static_cast<QuadNode *>(nullptr));
    if (Color == ColorGrey) {
      int64_t Half = Size / 2;
      // Quadrants: NW (x, y), NE (x+h, y), SW (x, y+h), SE (x+h, y+h);
      // x grows east, y grows south.
      A.store(&N->Kids[NW], buildTree(N, NW, X, Y, Half));
      A.store(&N->Kids[NE], buildTree(N, NE, X + Half, Y, Half));
      A.store(&N->Kids[SW], buildTree(N, SW, X, Y + Half, Half));
      A.store(&N->Kids[SE], buildTree(N, SE, X + Half, Y + Half, Half));
    }
    return N;
  }

  /// Samet's neighbor finding: climbs while the node is not adjacent to
  /// side D of its parent, then descends the mirrored path.
  const QuadNode *gtEqualAdjNeighbor(const QuadNode *N, Direction D) {
    const QuadNode *Parent = A.load(&N->Parent);
    uint32_t ChildType = A.load(&N->ChildType);
    A.tick(2);
    const QuadNode *Q;
    if (Parent && adjacent(D, ChildType))
      Q = gtEqualAdjNeighbor(Parent, D);
    else
      Q = Parent;
    if (Q && A.load(&Q->Color) == ColorGrey) {
      A.tick(1);
      return A.load(&Q->Kids[reflect(D, ChildType)]);
    }
    return Q;
  }

  /// Sums the border length contributed by white leaves along side \p D
  /// of the neighbor subtree \p N.
  uint64_t sumAdjacent(const QuadNode *N, Direction D, uint64_t Size) {
    uint32_t Color = A.load(&N->Color);
    A.tick(1);
    if (Color == ColorGrey) {
      const uint32_t *Adjacent = AdjacentQuadrants[D];
      const QuadNode *KidA = A.load(&N->Kids[Adjacent[0]]);
      const QuadNode *KidB = A.load(&N->Kids[Adjacent[1]]);
      return sumAdjacent(KidA, D, Size / 2) + sumAdjacent(KidB, D, Size / 2);
    }
    return Color == ColorWhite ? Size : 0;
  }

  uint64_t computePerimeter(const QuadNode *N, uint64_t Size) {
    uint32_t Color = A.load(&N->Color);
    A.tick(1);
    if (Color == ColorGrey) {
      uint64_t Total = 0;
      for (unsigned I = 0; I < 4; ++I) {
        const QuadNode *Kid = A.load(&N->Kids[I]);
        if (Greedy && Kid)
          A.prefetch(Kid);
        Total += computePerimeter(Kid, Size / 2);
      }
      return Total;
    }
    if (Color != ColorBlack)
      return 0;

    uint64_t Perimeter = 0;
    for (Direction D : {North, East, South, West}) {
      const QuadNode *Neighbor = gtEqualAdjNeighbor(N, D);
      if (!Neighbor) {
        Perimeter += Size; // Image boundary.
        continue;
      }
      uint32_t NeighborColor = A.load(&Neighbor->Color);
      A.tick(1);
      if (NeighborColor == ColorWhite)
        Perimeter += Size;
      else if (NeighborColor == ColorGrey)
        Perimeter += sumAdjacent(Neighbor, opposite(D), Size);
    }
    return Perimeter;
  }

  const PerimeterConfig &Config;
  Variant V;
  Access &A;
  CcAllocator Alloc;
  CcMorph<QuadNode, QuadAdapter> Morph;
  DiskImage Image;
  bool Greedy;
};

template <typename Access>
BenchResult runImpl(const PerimeterConfig &Config, Variant V,
                    const sim::HierarchyConfig *Sim, Access &A) {
  PerimeterRun<Access> Run(Config, V, Sim, A);
  return Run.run();
}

} // namespace

BenchResult ccl::olden::runPerimeter(const PerimeterConfig &Config, Variant V,
                                     const sim::HierarchyConfig *Sim) {
  if (Sim) {
    sim::MemoryHierarchy Hierarchy(hierarchyFor(*Sim, V));
    sim::SimAccess A(Hierarchy);
    BenchResult Result = runImpl(Config, V, Sim, A);
    Result.Stats = Hierarchy.stats();
    return Result;
  }
  sim::NativeAccess A;
  Timer T;
  BenchResult Result = runImpl(Config, V, Sim, A);
  Result.NativeSeconds = T.elapsedSec();
  return Result;
}

void ccl::olden::reflectPerimeterTypes() {
  CCL_REFLECT("olden", QuadNode, Color, ChildType, Parent, Kids);
}
