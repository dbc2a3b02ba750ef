//===- olden/TreeAdd.cpp - Olden treeadd benchmark --------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "olden/TreeAdd.h"

#include "support/Timer.h"

using namespace ccl;
using namespace ccl::olden;

namespace {

struct TreeNode {
  uint32_t Val;
  uint32_t Pad;
  TreeNode *Left;
  TreeNode *Right;
};

struct TreeAdapter {
  static constexpr unsigned MaxKids = 2;
  static constexpr bool HasParent = false;
  TreeNode *getKid(TreeNode *N, unsigned I) const {
    return I == 0 ? N->Left : N->Right;
  }
  void setKid(TreeNode *N, unsigned I, TreeNode *Kid) const {
    (I == 0 ? N->Left : N->Right) = Kid;
  }
};

/// Preorder recursive construction — Olden's creation order, which is
/// also the dominant traversal order.
template <typename Access>
TreeNode *buildTree(unsigned Level, CcAllocator &Alloc, Variant V,
                    const void *Parent, Access &A) {
  if (Level == 0)
    return nullptr;
  auto *N =
      static_cast<TreeNode *>(benchAlloc(Alloc, V, sizeof(TreeNode), Parent, A));
  A.store(&N->Val, 1u);
  A.store(&N->Pad, 0u);
  TreeNode *Left = buildTree(Level - 1, Alloc, V, N, A);
  A.store(&N->Left, Left);
  TreeNode *Right = buildTree(Level - 1, Alloc, V, N, A);
  A.store(&N->Right, Right);
  return N;
}

template <typename Access>
uint64_t sumTree(const TreeNode *N, bool GreedyPrefetch, Access &A) {
  if (!N)
    return 0;
  const TreeNode *Left = A.load(&N->Left);
  const TreeNode *Right = A.load(&N->Right);
  if (GreedyPrefetch) {
    // Luk-Mowry greedy prefetching: issue prefetches for all children as
    // soon as the node is visited.
    if (Left)
      A.prefetch(Left);
    if (Right)
      A.prefetch(Right);
  }
  uint64_t Value = A.load(&N->Val);
  A.tick(2);
  return Value + sumTree(Left, GreedyPrefetch, A) +
         sumTree(Right, GreedyPrefetch, A);
}

template <typename Access>
BenchResult runImpl(const TreeAddConfig &Config, Variant V,
                    const sim::HierarchyConfig *Sim, Access &A) {
  BenchResult Result;
  CcAllocator Alloc(paramsFor(Sim), strategyFor(V));

  TreeNode *Root = buildTree(Config.Levels, Alloc, V, nullptr, A);

  CcMorph<TreeNode, TreeAdapter> Morph(paramsFor(Sim));
  if (usesCcMorph(V)) {
    Root = Morph.reorganize(Root, morphOptionsFor(V));
    A.tick(Morph.stats().NodeCount * MorphPerNodeTicks);
  }

  bool Greedy = V == Variant::SwPrefetch;
  uint64_t Sum = 0;
  for (unsigned I = 0; I < Config.Iterations; ++I)
    Sum += sumTree(Root, Greedy, A);

  Result.Checksum = Sum;
  Result.Heap = Alloc.stats();
  Result.HeapFootprintBytes = Alloc.footprintBytes();
  if (usesCcMorph(V))
    Result.HeapFootprintBytes = Morph.stats().NodeCount * sizeof(TreeNode);
  return Result;
}

} // namespace

BenchResult ccl::olden::runTreeAdd(const TreeAddConfig &Config, Variant V,
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
