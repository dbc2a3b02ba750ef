//===- tests/ccmorph_test.cpp - ccmorph reorganizer tests --------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "core/CcMorph.h"

#include "sim/AccessPolicy.h"
#include "support/SweepRunner.h"
#include "support/Zipf.h"
#include "trees/BinaryTree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace ccl;
using namespace ccl::trees;

namespace {

CacheParams smallParams() {
  CacheParams P;
  P.CacheSets = 256;
  P.Associativity = 1;
  P.BlockBytes = 64;
  P.PageBytes = 4096;
  P.HotSets = 64;
  return P;
}

/// A unary list node for forest tests.
struct Cell {
  uint32_t Id;
  uint32_t Pad;
  Cell *Next;
  Cell *Prev;
};

struct CellAdapter {
  static constexpr unsigned MaxKids = 1;
  static constexpr bool HasParent = true;
  Cell *getKid(Cell *N, unsigned) const { return N->Next; }
  void setKid(Cell *N, unsigned, Cell *Kid) const { N->Next = Kid; }
  void setParent(Cell *N, Cell *P) const { N->Prev = P; }
};

uint64_t countNodes(const BstNode *Root) {
  if (!Root)
    return 0;
  return 1 + countNodes(Root->Left) + countNodes(Root->Right);
}

} // namespace

TEST(CcMorph, PreservesTreeStructure) {
  auto Tree = BinarySearchTree::build(1023, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  BstNode *NewRoot = Morph.reorganize(Tree.root());
  EXPECT_TRUE(verifyBst(NewRoot, 1023));
  EXPECT_EQ(Morph.stats().NodeCount, 1023u);
}

TEST(CcMorph, AllKeysStillSearchable) {
  const uint64_t N = 511;
  auto Tree = BinarySearchTree::build(N, LayoutScheme::DepthFirst);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  BstNode *NewRoot = Morph.reorganize(Tree.root());
  sim::NativeAccess A;
  for (uint64_t I = 0; I < N; ++I)
    EXPECT_NE(bstSearch(NewRoot, BinarySearchTree::keyAt(I), A), nullptr);
  // Even keys are absent.
  EXPECT_EQ(bstSearch(NewRoot, 2, A), nullptr);
  EXPECT_EQ(bstSearch(NewRoot, 0, A), nullptr);
}

TEST(CcMorph, SourceTreeUntouched) {
  auto Tree = BinarySearchTree::build(255, LayoutScheme::Bfs);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  BstNode *NewRoot = Morph.reorganize(Tree.root());
  EXPECT_NE(NewRoot, Tree.root());
  EXPECT_TRUE(verifyBst(Tree.root(), 255)); // Original still intact.
}

TEST(CcMorph, SubtreeClustersShareCacheBlocks) {
  CacheParams P = smallParams();
  auto Tree = BinarySearchTree::build(1023, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(P);
  BstNode *NewRoot = Morph.reorganize(Tree.root());
  // With 24-byte nodes and 64-byte blocks, k = 2: each parent shares its
  // block with its first BFS descendant. Verify the root and its left
  // child are in one block.
  uint64_t RootBlock = addrOf(NewRoot) / P.BlockBytes;
  uint64_t LeftBlock = addrOf(NewRoot->Left) / P.BlockBytes;
  EXPECT_EQ(RootBlock, LeftBlock);
  EXPECT_EQ(Morph.stats().NodesPerBlock, 2u);
}

TEST(CcMorph, ColoringPutsTopOfTreeInHotSets) {
  CacheParams P = smallParams();
  auto Tree = BinarySearchTree::build(4095, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(P);
  BstNode *NewRoot = Morph.reorganize(Tree.root());
  const ColoredArena *Arena = Morph.arena();
  ASSERT_NE(Arena, nullptr);
  // Root must be hot; hot budget = 64 sets * 64B = 4096B = 170 nodes.
  EXPECT_TRUE(Arena->isHot(NewRoot));
  EXPECT_GT(Morph.stats().HotNodes, 0u);
  EXPECT_LE(Morph.stats().HotNodes * sizeof(BstNode),
            P.hotCapacityBytes());
  EXPECT_GT(Morph.stats().ColdNodes, 0u);
}

TEST(CcMorph, NoColoringLeavesEverythingCold) {
  auto Tree = BinarySearchTree::build(1023, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  MorphOptions Options;
  Options.Color = false;
  BstNode *NewRoot = Morph.reorganize(Tree.root(), Options);
  EXPECT_TRUE(verifyBst(NewRoot, 1023));
  EXPECT_EQ(Morph.stats().HotNodes, 0u);
}

TEST(CcMorph, AllSchemesPreserveSemantics) {
  for (LayoutScheme Scheme :
       {LayoutScheme::Subtree, LayoutScheme::DepthFirst, LayoutScheme::Bfs,
        LayoutScheme::Random}) {
    auto Tree = BinarySearchTree::build(513, LayoutScheme::DepthFirst);
    CcMorph<BstNode, BstAdapter> Morph(smallParams());
    MorphOptions Options;
    Options.Scheme = Scheme;
    BstNode *NewRoot = Morph.reorganize(Tree.root(), Options);
    EXPECT_TRUE(verifyBst(NewRoot, 513)) << layoutSchemeName(Scheme);
  }
}

TEST(CcMorph, DepthFirstSchemeLaysPreorderRuns) {
  auto Tree = BinarySearchTree::build(63, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  MorphOptions Options;
  Options.Scheme = LayoutScheme::DepthFirst;
  Options.Color = false;
  BstNode *NewRoot = Morph.reorganize(Tree.root(), Options);
  // In a preorder layout the root's left child immediately follows it.
  EXPECT_EQ(addrOf(NewRoot->Left), addrOf(NewRoot) + sizeof(BstNode));
}

TEST(CcMorph, ExplicitNodesPerBlock) {
  auto Tree = BinarySearchTree::build(255, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  MorphOptions Options;
  Options.NodesPerBlock = 1;
  BstNode *NewRoot = Morph.reorganize(Tree.root(), Options);
  EXPECT_TRUE(verifyBst(NewRoot, 255));
  EXPECT_EQ(Morph.stats().NodesPerBlock, 1u);
  EXPECT_EQ(Morph.stats().ClusterCount, 255u);
}

TEST(CcMorph, SingleNodeTree) {
  auto Tree = BinarySearchTree::build(1, LayoutScheme::DepthFirst);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  BstNode *NewRoot = Morph.reorganize(Tree.root());
  EXPECT_TRUE(verifyBst(NewRoot, 1));
  EXPECT_EQ(Morph.stats().ClusterCount, 1u);
}

TEST(CcMorph, RemorphIsSafe) {
  auto Tree = BinarySearchTree::build(511, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  BstNode *Root = Morph.reorganize(Tree.root());
  // Re-morphing reads from the arena it is about to replace; the copy
  // must complete before the old arena is released.
  Root = Morph.reorganize(Root);
  Root = Morph.reorganize(Root);
  EXPECT_TRUE(verifyBst(Root, 511));
}

TEST(CcMorph, ForestSharedArena) {
  // Three disjoint linked lists (unary trees with parent back-pointers).
  std::vector<std::vector<Cell>> Backing(3);
  std::vector<Cell *> Roots;
  uint32_t Id = 0;
  for (auto &List : Backing) {
    List.resize(10);
    for (size_t I = 0; I < List.size(); ++I) {
      List[I].Id = Id++;
      List[I].Next = I + 1 < List.size() ? &List[I + 1] : nullptr;
      List[I].Prev = I > 0 ? &List[I - 1] : nullptr;
    }
    Roots.push_back(&List[0]);
  }

  CcMorph<Cell, CellAdapter> Morph(smallParams());
  std::vector<Cell *> NewRoots = Morph.reorganizeForest(Roots);
  ASSERT_EQ(NewRoots.size(), 3u);
  EXPECT_EQ(Morph.stats().NodeCount, 30u);

  uint32_t Expected = 0;
  for (Cell *Root : NewRoots) {
    Cell *Prev = nullptr;
    for (Cell *C = Root; C; C = C->Next) {
      EXPECT_EQ(C->Id, Expected++);
      EXPECT_EQ(C->Prev, Prev); // Parent pointers rewritten.
      Prev = C;
    }
  }
}

TEST(CcMorph, ListClusteringPacksConsecutiveCells) {
  std::vector<Cell> Backing(40);
  for (size_t I = 0; I < Backing.size(); ++I) {
    Backing[I].Id = static_cast<uint32_t>(I);
    Backing[I].Next = I + 1 < Backing.size() ? &Backing[I + 1] : nullptr;
    Backing[I].Prev = nullptr;
  }
  CacheParams P = smallParams();
  CcMorph<Cell, CellAdapter> Morph(P);
  Cell *Root = Morph.reorganize(&Backing[0]);
  // 24-byte cells, 64-byte blocks: pairs of consecutive cells share a
  // block after clustering.
  EXPECT_EQ(addrOf(Root) / P.BlockBytes, addrOf(Root->Next) / P.BlockBytes);
}

TEST(CcMorph, NewNodesAreDistinctFromOld) {
  auto Tree = BinarySearchTree::build(127, LayoutScheme::Bfs);
  std::set<const BstNode *> OldNodes;
  std::vector<const BstNode *> Stack{Tree.root()};
  while (!Stack.empty()) {
    const BstNode *N = Stack.back();
    Stack.pop_back();
    OldNodes.insert(N);
    if (N->Left)
      Stack.push_back(N->Left);
    if (N->Right)
      Stack.push_back(N->Right);
  }
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  BstNode *NewRoot = Morph.reorganize(Tree.root());
  Stack.push_back(NewRoot);
  while (!Stack.empty()) {
    const BstNode *N = Stack.back();
    Stack.pop_back();
    EXPECT_FALSE(OldNodes.count(N));
    if (N->Left)
      Stack.push_back(N->Left);
    if (N->Right)
      Stack.push_back(N->Right);
  }
}

TEST(CcMorph, StatsAccounting) {
  auto Tree = BinarySearchTree::build(1023, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  Morph.reorganize(Tree.root());
  const MorphStats &S = Morph.stats();
  EXPECT_EQ(S.HotNodes + S.ColdNodes, S.NodeCount);
  EXPECT_GE(S.ClusterCount, S.NodeCount / S.NodesPerBlock);
  EXPECT_GE(S.ArenaFrames, 1u);
}

// Parameterized: morph correctness across tree sizes and cluster sizes.
class MorphSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(MorphSweep, StructurePreserved) {
  auto [N, K] = GetParam();
  auto Tree = BinarySearchTree::build(N, LayoutScheme::Random, N * 7 + K);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  MorphOptions Options;
  Options.NodesPerBlock = K;
  BstNode *NewRoot = Morph.reorganize(Tree.root(), Options);
  EXPECT_TRUE(verifyBst(NewRoot, N));
  EXPECT_EQ(countNodes(NewRoot), N);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndClusters, MorphSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 64, 100, 1023, 5000),
                       ::testing::Values(1, 2, 3, 5, 8)));

//===----------------------------------------------------------------------===//
// Profile-guided reorganization (paper §7 future work)
//===----------------------------------------------------------------------===//

TEST(CcMorphProfiled, PreservesStructure) {
  auto Tree = BinarySearchTree::build(1023, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  CcMorph<BstNode, BstAdapter>::Profile Counts;
  sim::NativeAccess A;
  for (uint64_t I = 0; I < 1023; I += 3)
    bstSearchProfiled(Tree.root(), BinarySearchTree::keyAt(I), A, Counts);
  BstNode *NewRoot = Morph.reorganizeProfiled(Tree.root(), Counts);
  EXPECT_TRUE(verifyBst(NewRoot, 1023));
}

TEST(CcMorphProfiled, HotRegionFollowsCounts) {
  // Count only the nodes along the right spine heavily; they must end up
  // hot even though half of them are far from the root's BFS frontier.
  auto Tree = BinarySearchTree::build(4095, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter>::Profile Counts;
  std::vector<const BstNode *> Spine;
  for (BstNode *N = Tree.root(); N; N = N->Right) {
    Counts[N] = 1000000;
    Spine.push_back(N);
  }

  CacheParams P = smallParams();
  CcMorph<BstNode, BstAdapter> Morph(P);
  BstNode *NewRoot = Morph.reorganizeProfiled(Tree.root(), Counts);
  ASSERT_TRUE(verifyBst(NewRoot, 4095));

  // Walk the NEW right spine: every node must sit in a hot set.
  const ColoredArena *Arena = Morph.arena();
  unsigned HotOnSpine = 0;
  unsigned SpineLen = 0;
  for (const BstNode *N = NewRoot; N; N = N->Right) {
    HotOnSpine += Arena->isHot(N) ? 1 : 0;
    ++SpineLen;
  }
  EXPECT_EQ(HotOnSpine, SpineLen);
  // And uncounted deep-left leaves must be cold (budget went to the
  // spine, not to BFS order).
  const BstNode *DeepLeft = NewRoot;
  while (DeepLeft->Left)
    DeepLeft = DeepLeft->Left;
  EXPECT_FALSE(Arena->isHot(DeepLeft));
}

TEST(CcMorphProfiled, EmptyProfileLeavesEverythingCold) {
  // No counted nodes: nothing qualifies for the hot region.
  auto Tree = BinarySearchTree::build(511, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());
  CcMorph<BstNode, BstAdapter>::Profile Empty;
  BstNode *NewRoot = Morph.reorganizeProfiled(Tree.root(), Empty);
  EXPECT_TRUE(verifyBst(NewRoot, 511));
  EXPECT_EQ(Morph.stats().HotNodes, 0u);
}

TEST(CcMorphProfiled, RespectsHotBudget) {
  auto Tree = BinarySearchTree::build(8191, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter>::Profile Counts;
  sim::NativeAccess A;
  Xoshiro256 Rng(5);
  for (int I = 0; I < 5000; ++I)
    bstSearchProfiled(Tree.root(),
                      BinarySearchTree::keyAt(Rng.nextBounded(8191)), A,
                      Counts);
  CacheParams P = smallParams();
  CcMorph<BstNode, BstAdapter> Morph(P);
  Morph.reorganizeProfiled(Tree.root(), Counts);
  EXPECT_LE(Morph.stats().HotNodes * sizeof(BstNode), P.hotCapacityBytes());
  EXPECT_GT(Morph.stats().HotNodes, 0u);
}

//===----------------------------------------------------------------------===//
// Placement parity: flat-map/vector CcMorph vs the seed implementation
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// ClusterOrder: the shared planner, on small hand-checked index trees.
//===----------------------------------------------------------------------===//

namespace {

/// Kids of each node as (slot, kid), in slot order; absent = leaf.
using Adjacency = std::map<int64_t, std::vector<std::pair<uint32_t, int64_t>>>;

/// Heap-numbered complete binary tree of \p Size nodes: node N's kids
/// are 2N (slot 0) and 2N+1 (slot 1).
Adjacency heapTree(int64_t Size) {
  Adjacency Tree;
  for (int64_t N = 1; 2 * N <= Size; ++N)
    for (uint32_t Slot = 0; Slot < 2 && 2 * N + Slot <= Size; ++Slot)
      Tree[N].push_back({Slot, 2 * N + Slot});
  return Tree;
}

ClusterOrder<int64_t> planOver(const Adjacency &Tree,
                               const std::vector<int64_t> &Roots,
                               LayoutScheme Scheme, size_t K) {
  ClusterOrder<int64_t> Order;
  Order.plan(Roots, Scheme, K, [&](int64_t N, auto &&Visit) {
    if (auto It = Tree.find(N); It != Tree.end())
      for (auto [Slot, Kid] : It->second)
        Visit(Slot, Kid);
  });
  return Order;
}

constexpr uint32_t Root = ClusterOrder<int64_t>::NoParent;

struct Want {
  int64_t Node;
  uint32_t Parent; ///< Position of the parent item (Root for a root).
  uint32_t Slot;
};

void expectPlan(const ClusterOrder<int64_t> &Order,
                const std::vector<Want> &Items,
                const std::vector<size_t> &Ends) {
  ASSERT_EQ(Order.items().size(), Items.size());
  for (size_t At = 0; At < Items.size(); ++At) {
    SCOPED_TRACE("position " + std::to_string(At));
    EXPECT_EQ(Order.items()[At].Node, Items[At].Node);
    EXPECT_EQ(Order.items()[At].Parent, Items[At].Parent);
    EXPECT_EQ(Order.items()[At].Slot, Items[At].Slot);
  }
  ASSERT_EQ(Order.clusters(), Ends.size());
  for (size_t C = 0; C < Ends.size(); ++C) {
    EXPECT_EQ(Order.clusterBegin(C), C == 0 ? 0 : Ends[C - 1]);
    EXPECT_EQ(Order.clusterEnd(C), Ends[C]);
  }
}

} // namespace

TEST(ClusterOrder, SubtreeClustersCompleteBinaryTree) {
  // K = 3 on 15 nodes: {1,2,3}, then one cluster per level-2 subtree,
  // {4,8,9}, {5,10,11}, {6,12,13}, {7,14,15}.
  ClusterOrder<int64_t> Order =
      planOver(heapTree(15), {1}, LayoutScheme::Subtree, 3);
  expectPlan(Order,
             {{1, Root, 0},
              {2, 0, 0},
              {3, 0, 1},
              {4, 1, 0},
              {8, 3, 0},
              {9, 3, 1},
              {5, 1, 1},
              {10, 6, 0},
              {11, 6, 1},
              {6, 2, 0},
              {12, 9, 0},
              {13, 9, 1},
              {7, 2, 1},
              {14, 12, 0},
              {15, 12, 1}},
             {3, 6, 9, 12, 15});
  // The first cluster leaves 4..7 queued behind its three nodes.
  EXPECT_EQ(Order.frontierPeak(), 7u);
}

TEST(ClusterOrder, EightAryTreeReportsSparseSlots) {
  // Root 0 fills all eight slots with 1..8; node 1 has kids only in
  // slots 3 and 6. Eight-way branching defeats small clusters: after
  // {0,1,2} every remaining node is a cluster of its own.
  Adjacency Tree;
  for (uint32_t Slot = 0; Slot < 8; ++Slot)
    Tree[0].push_back({Slot, int64_t(Slot) + 1});
  Tree[1] = {{3, 9}, {6, 10}};
  std::vector<Want> Bfs = {{0, Root, 0}, {1, 0, 0}, {2, 0, 1},  {3, 0, 2},
                           {4, 0, 3},    {5, 0, 4}, {6, 0, 5},  {7, 0, 6},
                           {8, 0, 7},    {9, 1, 3}, {10, 1, 6}};
  expectPlan(planOver(Tree, {0}, LayoutScheme::Subtree, 3), Bfs,
             {3, 4, 5, 6, 7, 8, 9, 10, 11});
  // The same order, cut every three nodes: the last cluster is short.
  expectPlan(planOver(Tree, {0}, LayoutScheme::Bfs, 3), Bfs, {3, 6, 9, 11});
  expectPlan(planOver(Tree, {0}, LayoutScheme::DepthFirst, 3),
             {{0, Root, 0},
              {1, 0, 0},
              {9, 1, 3},
              {10, 1, 6},
              {2, 0, 1},
              {3, 0, 2},
              {4, 0, 3},
              {5, 0, 4},
              {6, 0, 5},
              {7, 0, 6},
              {8, 0, 7}},
             {3, 6, 9, 11});
}

TEST(ClusterOrder, TwoRootForest) {
  // Tree 1: 1 -> (0:2, 1:3), 2 -> (0:4). Tree 2: 10 -> (1:11),
  // 11 -> (0:12, 1:13).
  Adjacency Tree;
  Tree[1] = {{0, 2}, {1, 3}};
  Tree[2] = {{0, 4}};
  Tree[10] = {{1, 11}};
  Tree[11] = {{0, 12}, {1, 13}};
  // Subtree: both roots' clusters come first, then the leftovers in
  // discovery order.
  expectPlan(planOver(Tree, {1, 10}, LayoutScheme::Subtree, 2),
             {{1, Root, 0},
              {2, 0, 0},
              {10, Root, 0},
              {11, 2, 1},
              {3, 0, 1},
              {4, 1, 0},
              {12, 3, 0},
              {13, 3, 1}},
             {2, 4, 5, 6, 7, 8});
  // Bfs and DepthFirst walk tree after tree; the middle cluster spans
  // both trees and the last one is short.
  expectPlan(planOver(Tree, {1, 10}, LayoutScheme::Bfs, 3),
             {{1, Root, 0},
              {2, 0, 0},
              {3, 0, 1},
              {4, 1, 0},
              {10, Root, 0},
              {11, 4, 1},
              {12, 5, 0},
              {13, 5, 1}},
             {3, 6, 8});
  expectPlan(planOver(Tree, {1, 10}, LayoutScheme::DepthFirst, 3),
             {{1, Root, 0},
              {2, 0, 0},
              {4, 1, 0},
              {3, 0, 1},
              {10, Root, 0},
              {11, 4, 1},
              {12, 5, 0},
              {13, 5, 1}},
             {3, 6, 8});
}

TEST(ClusterOrder, OneNodeClusters) {
  // K = 1: subtree clustering degenerates to breadth-first order.
  std::vector<size_t> Ends = {1, 2, 3, 4, 5, 6, 7};
  expectPlan(planOver(heapTree(7), {1}, LayoutScheme::Subtree, 1),
             {{1, Root, 0},
              {2, 0, 0},
              {3, 0, 1},
              {4, 1, 0},
              {5, 1, 1},
              {6, 2, 0},
              {7, 2, 1}},
             Ends);
  expectPlan(planOver(heapTree(7), {1}, LayoutScheme::DepthFirst, 1),
             {{1, Root, 0},
              {2, 0, 0},
              {4, 1, 0},
              {5, 1, 1},
              {3, 0, 1},
              {6, 4, 0},
              {7, 4, 1}},
             Ends);
}

namespace seedref {

/// Placement key invariant under arena base addresses: (frame index in
/// creation order, offset within the frame). Hot membership is implied
/// (offset < hotBytesPerFrame), but carried anyway for clearer failures.
struct Placement {
  uint64_t Frame;
  uint64_t Offset;
  bool Hot;
  bool operator==(const Placement &O) const {
    return Frame == O.Frame && Offset == O.Offset && Hot == O.Hot;
  }
};

Placement placementOf(const ColoredArena &Arena, const void *Ptr) {
  Placement Result{~uint64_t(0), 0, false};
  uint64_t Frame = 0;
  Arena.forEachFrame([&](const char *Base, uint64_t Bytes,
                         uint64_t HotBytes) {
    uint64_t Offset = addrOf(Ptr) - addrOf(Base);
    if (addrOf(Ptr) >= addrOf(Base) && Offset < Bytes)
      Result = {Frame, Offset, Offset < HotBytes};
    ++Frame;
  });
  return Result;
}

/// Verbatim port of the pre-flat-map ccmorph placement logic: deque
/// work lists, per-cluster vectors, unordered_map profile lookups. It
/// replays the cluster decisions on its own ColoredArena and returns
/// the placement key every old node should get, in a map keyed by the
/// old node. The production CcMorph must reproduce these placements
/// exactly (same frame, same offset, same hot/cold region).
template <typename Node, typename Adapter>
std::unordered_map<const Node *, Placement> referencePlacements(
    const std::vector<Node *> &Roots, const CacheParams &Params,
    const MorphOptions &Options,
    const std::unordered_map<const Node *, uint64_t> *Counts) {
  Adapter A;
  size_t K = Options.NodesPerBlock
                 ? Options.NodesPerBlock
                 : std::max<size_t>(1, Params.BlockBytes / sizeof(Node));

  // Cluster formation, seed style (deque frontiers).
  std::vector<std::vector<Node *>> Clusters;
  auto ChunkOrder = [&](const std::vector<Node *> &Order) {
    for (size_t Begin = 0; Begin < Order.size(); Begin += K) {
      size_t End = std::min(Begin + K, Order.size());
      Clusters.emplace_back(Order.begin() + Begin, Order.begin() + End);
    }
  };
  switch (Options.Scheme) {
  case LayoutScheme::Subtree: {
    std::deque<Node *> ClusterRoots;
    for (Node *Root : Roots)
      if (Root)
        ClusterRoots.push_back(Root);
    while (!ClusterRoots.empty()) {
      Node *Top = ClusterRoots.front();
      ClusterRoots.pop_front();
      std::vector<Node *> Cluster;
      std::deque<Node *> Frontier{Top};
      while (!Frontier.empty() && Cluster.size() < K) {
        Node *N = Frontier.front();
        Frontier.pop_front();
        Cluster.push_back(N);
        for (unsigned I = 0; I < Adapter::MaxKids; ++I)
          if (Node *Kid = A.getKid(N, I))
            Frontier.push_back(Kid);
      }
      for (Node *Kid : Frontier)
        ClusterRoots.push_back(Kid);
      Clusters.push_back(std::move(Cluster));
    }
    break;
  }
  case LayoutScheme::DepthFirst: {
    std::vector<Node *> Order;
    for (Node *Root : Roots) {
      if (!Root)
        continue;
      std::vector<Node *> Stack{Root};
      while (!Stack.empty()) {
        Node *N = Stack.back();
        Stack.pop_back();
        Order.push_back(N);
        for (unsigned I = Adapter::MaxKids; I > 0; --I)
          if (Node *Kid = A.getKid(N, I - 1))
            Stack.push_back(Kid);
      }
    }
    ChunkOrder(Order);
    break;
  }
  case LayoutScheme::Bfs:
  case LayoutScheme::Random: {
    std::vector<Node *> Order;
    for (Node *Root : Roots) {
      if (!Root)
        continue;
      std::deque<Node *> Queue{Root};
      while (!Queue.empty()) {
        Node *N = Queue.front();
        Queue.pop_front();
        Order.push_back(N);
        for (unsigned I = 0; I < Adapter::MaxKids; ++I)
          if (Node *Kid = A.getKid(N, I))
            Queue.push_back(Kid);
      }
    }
    if (Options.Scheme == LayoutScheme::Random) {
      Xoshiro256 Rng(Options.Seed);
      Rng.shuffle(Order);
    }
    ChunkOrder(Order);
    break;
  }
  }

  // Hot assignment, seed style.
  uint64_t HotBudget = Options.Color ? Params.hotCapacityBytes() : 0;
  std::vector<bool> HotFlag(Clusters.size(), false);
  if (Counts && Options.Color) {
    std::vector<std::pair<double, size_t>> Ranked;
    for (size_t I = 0; I < Clusters.size(); ++I) {
      uint64_t Weight = 0;
      for (const Node *N : Clusters[I]) {
        auto It = Counts->find(N);
        if (It != Counts->end())
          Weight += It->second;
      }
      Ranked.push_back({double(Weight) / double(Clusters[I].size()), I});
    }
    std::sort(Ranked.begin(), Ranked.end(),
              [](const auto &X, const auto &Y) {
                return X.first > Y.first ||
                       (X.first == Y.first && X.second < Y.second);
              });
    uint64_t Budget = HotBudget;
    for (const auto &[Weight, Index] : Ranked) {
      uint64_t Footprint =
          alignUp(Clusters[Index].size() * sizeof(Node), Params.BlockBytes);
      if (Weight <= 0.0 || Budget < Footprint)
        continue;
      Budget -= Footprint;
      HotFlag[Index] = true;
    }
  }

  // Replay the copy pass on a private arena; record placement keys.
  CacheParams ArenaParams = Params;
  if (!Options.Color)
    ArenaParams.HotSets = 0;
  ColoredArena Arena(ArenaParams);
  std::unordered_map<const Node *, Placement> Placements;
  for (size_t ClusterIdx = 0; ClusterIdx < Clusters.size(); ++ClusterIdx) {
    const auto &Cluster = Clusters[ClusterIdx];
    size_t Bytes = Cluster.size() * sizeof(Node);
    uint64_t Footprint = alignUp(Bytes, Params.BlockBytes);
    bool Hot = Counts && Options.Color ? HotFlag[ClusterIdx]
                                       : HotBudget >= Footprint;
    char *Memory;
    if (Hot) {
      Memory = static_cast<char *>(Arena.allocateIn(Bytes, /*Hot=*/true));
      HotBudget -= Footprint;
    } else {
      Memory = static_cast<char *>(Arena.allocateIn(Bytes, /*Hot=*/false));
    }
    for (size_t I = 0; I < Cluster.size(); ++I)
      Placements[Cluster[I]] =
          placementOf(Arena, Memory + I * sizeof(Node));
  }
  return Placements;
}

/// Pairs every old node with its reorganized counterpart by walking the
/// isomorphic trees in lockstep.
template <typename Node, typename Adapter>
void pairNodes(Node *Old, Node *New,
               std::vector<std::pair<Node *, Node *>> &Pairs) {
  if (!Old || !New) {
    ASSERT_EQ(Old == nullptr, New == nullptr) << "structure diverged";
    return;
  }
  Adapter A;
  Pairs.push_back({Old, New});
  for (unsigned I = 0; I < Adapter::MaxKids; ++I)
    pairNodes<Node, Adapter>(A.getKid(Old, I), A.getKid(New, I), Pairs);
}

/// Reorganizes with the production CcMorph and checks every node lands
/// at exactly the placement key the seed logic computes.
void expectSeedPlacements(uint64_t NumNodes, const CacheParams &Params,
                          const MorphOptions &Options) {
  auto Tree = BinarySearchTree::build(NumNodes, LayoutScheme::Random);
  std::vector<BstNode *> Roots{Tree.root()};
  auto Expected = referencePlacements<BstNode, BstAdapter>(
      Roots, Params, Options, nullptr);

  CcMorph<BstNode, BstAdapter> Morph(Params);
  BstNode *NewRoot = Morph.reorganize(Tree.root(), Options);

  std::vector<std::pair<BstNode *, BstNode *>> Pairs;
  pairNodes<BstNode, BstAdapter>(Tree.root(), NewRoot, Pairs);
  ASSERT_EQ(Pairs.size(), NumNodes);
  ASSERT_EQ(Morph.stats().NodeCount, NumNodes);

  uint64_t HotSeen = 0;
  for (const auto &[Old, New] : Pairs) {
    Placement Actual = placementOf(*Morph.arena(), New);
    ASSERT_NE(Actual.Frame, ~uint64_t(0)) << "node outside the arena";
    auto It = Expected.find(Old);
    ASSERT_NE(It, Expected.end());
    EXPECT_EQ(Actual.Frame, It->second.Frame);
    EXPECT_EQ(Actual.Offset, It->second.Offset);
    EXPECT_EQ(Actual.Hot, It->second.Hot);
    HotSeen += Actual.Hot;
  }
  EXPECT_EQ(Morph.stats().HotNodes, HotSeen);
  EXPECT_EQ(Morph.stats().ColdNodes, NumNodes - HotSeen);
}

} // namespace seedref

TEST(CcMorphParity, SubtreeSchemeMatchesSeed) {
  MorphOptions Options;
  seedref::expectSeedPlacements(2047, smallParams(), Options);
}

TEST(CcMorphParity, AllSchemesAndShapesMatchSeed) {
  for (LayoutScheme Scheme :
       {LayoutScheme::Subtree, LayoutScheme::DepthFirst, LayoutScheme::Bfs,
        LayoutScheme::Random}) {
    for (uint64_t NumNodes : {1u, 7u, 100u, 1023u, 1500u}) {
      MorphOptions Options;
      Options.Scheme = Scheme;
      seedref::expectSeedPlacements(NumNodes, smallParams(), Options);
    }
  }
}

TEST(CcMorphParity, UncoloredAndCustomKMatchSeed) {
  MorphOptions Options;
  Options.Color = false;
  seedref::expectSeedPlacements(1023, smallParams(), Options);
  Options.Color = true;
  Options.NodesPerBlock = 5;
  seedref::expectSeedPlacements(1023, smallParams(), Options);
}

TEST(CcMorphParity, ProfiledColoringMatchesSeed) {
  // The same skewed profile in both representations: the flat
  // PtrCountMap drives the production path, the unordered_map the
  // reference. Keys are node addresses, so both count over one tree.
  CacheParams Params = smallParams();
  auto Workload = BinarySearchTree::build(1023, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter>::Profile Counts;
  std::unordered_map<const BstNode *, uint64_t> RefCounts;
  sim::NativeAccess A;
  Xoshiro256 Rng(0x90F11EULL);
  for (unsigned I = 0; I < 3000; ++I) {
    uint32_t Key = BinarySearchTree::keyAt(Rng.nextBounded(64));
    bstSearchProfiled(Workload.root(), Key, A, Counts);
  }
  Counts.forEach([&](uint64_t Key, uint64_t Value) {
    RefCounts[reinterpret_cast<const BstNode *>(Key)] = Value;
  });

  MorphOptions Options;
  std::vector<BstNode *> Roots{
      const_cast<BstNode *>(Workload.root())};
  auto Expected = seedref::referencePlacements<BstNode, BstAdapter>(
      Roots, Params, Options, &RefCounts);

  CcMorph<BstNode, BstAdapter> Morph(Params);
  BstNode *NewRoot = Morph.reorganizeProfiled(
      const_cast<BstNode *>(Workload.root()), Counts, Options);
  std::vector<std::pair<BstNode *, BstNode *>> Pairs;
  seedref::pairNodes<BstNode, BstAdapter>(
      const_cast<BstNode *>(Workload.root()), NewRoot, Pairs);
  for (const auto &[Old, New] : Pairs) {
    seedref::Placement Actual =
        seedref::placementOf(*Morph.arena(), New);
    auto It = Expected.find(Old);
    ASSERT_NE(It, Expected.end());
    EXPECT_TRUE(Actual == It->second)
        << "frame " << Actual.Frame << "/" << It->second.Frame
        << " offset " << Actual.Offset << "/" << It->second.Offset;
  }
}

TEST(CcMorphParity, ScratchReuseKeepsPlacementsStable) {
  // Reorganizing three times through one CcMorph (warm scratch buffers;
  // the third pass lays out into the first pass's frames) must place
  // exactly like a fresh instance, every pass.
  auto Tree = BinarySearchTree::build(1023, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Fresh(smallParams());
  BstNode *Direct = Fresh.reorganize(Tree.root());

  CcMorph<BstNode, BstAdapter> Warm(smallParams());
  BstNode *Root = Tree.root();
  for (int Pass = 1; Pass <= 3; ++Pass) {
    SCOPED_TRACE("pass " + std::to_string(Pass));
    Root = Warm.reorganize(Root);
    std::vector<std::pair<BstNode *, BstNode *>> Pairs;
    seedref::pairNodes<BstNode, BstAdapter>(Root, Direct, Pairs);
    ASSERT_EQ(Pairs.size(), 1023u);
    for (const auto &[Reused, Once] : Pairs) {
      seedref::Placement A = seedref::placementOf(*Warm.arena(), Reused);
      seedref::Placement B = seedref::placementOf(*Fresh.arena(), Once);
      EXPECT_TRUE(A == B);
    }
  }
}

namespace {

/// Frame bases of \p Arena, in layout order.
std::vector<const char *> frameBases(const ColoredArena &Arena) {
  std::vector<const char *> Bases;
  Arena.forEachFrame(
      [&](const char *Base, uint64_t, uint64_t) { Bases.push_back(Base); });
  return Bases;
}

} // namespace

TEST(CcMorph, PassesLayOutIntoTheRetiredFrames) {
  // The double buffer: pass N lays out into pass N-2's frames, frame i
  // into frame i, and never into pass N-1's, which hold its source when
  // it re-morphs. A pass larger than its retired arena draws the extra
  // frames fresh; a smaller one frees the surplus.
  auto Small = BinarySearchTree::build(511, LayoutScheme::Random);
  auto Large = BinarySearchTree::build(4095, LayoutScheme::Random);
  CcMorph<BstNode, BstAdapter> Morph(smallParams());

  Morph.reorganize(Small.root());
  std::vector<const char *> Pass1 = frameBases(*Morph.arena());
  EXPECT_EQ(Morph.stats().FramesDrawn, Pass1.size());

  BstNode *Root = Morph.reorganize(Large.root());
  std::vector<const char *> Pass2 = frameBases(*Morph.arena());
  ASSERT_GT(Pass2.size(), Pass1.size());
  EXPECT_EQ(Morph.stats().FramesDrawn, Pass2.size());

  // Pass 3 re-morphs pass 2's structure: pass 1's frames, then fresh.
  Root = Morph.reorganize(Root);
  EXPECT_TRUE(verifyBst(Root, 4095));
  std::vector<const char *> Pass3 = frameBases(*Morph.arena());
  ASSERT_EQ(Pass3.size(), Pass2.size());
  for (size_t I = 0; I < Pass3.size(); ++I) {
    if (I < Pass1.size()) {
      EXPECT_EQ(Pass3[I], Pass1[I]) << "frame " << I;
    }
    EXPECT_EQ(std::count(Pass2.begin(), Pass2.end(), Pass3[I]), 0)
        << "frame " << I << " overwrote the source's frames";
  }
  EXPECT_EQ(Morph.stats().FramesDrawn, Pass3.size() - Pass1.size());
  EXPECT_EQ(Morph.stats().FramesFreed, 0u);

  // Pass 4 is smaller than pass 2: it keeps pass 2's leading frames and
  // frees the rest.
  Root = Morph.reorganize(Small.root());
  EXPECT_TRUE(verifyBst(Root, 511));
  std::vector<const char *> Pass4 = frameBases(*Morph.arena());
  ASSERT_EQ(Pass4.size(), Pass1.size());
  EXPECT_TRUE(std::equal(Pass4.begin(), Pass4.end(), Pass2.begin()));
  EXPECT_EQ(Morph.stats().FramesDrawn, 0u);
  EXPECT_EQ(Morph.stats().FramesFreed, Pass2.size() - Pass4.size());

  // Pass 5 lays out into pass 3's frames again.
  Morph.reorganize(Large.root());
  EXPECT_EQ(frameBases(*Morph.arena()), Pass3);
  EXPECT_EQ(Morph.stats().FramesDrawn, 0u);
  EXPECT_EQ(Morph.stats().FramesFreed, 0u);
}

//===----------------------------------------------------------------------===//
// Concurrent morphs sharing one source
//===----------------------------------------------------------------------===//

namespace {

/// Every node of the tree in preorder, by value.
std::vector<BstNode> snapshotTree(const BstNode *Root) {
  std::vector<BstNode> Nodes;
  std::vector<const BstNode *> Stack{Root};
  while (!Stack.empty()) {
    const BstNode *N = Stack.back();
    Stack.pop_back();
    if (!N)
      continue;
    Nodes.push_back(*N);
    Stack.push_back(N->Right);
    Stack.push_back(N->Left);
  }
  return Nodes;
}

} // namespace

TEST(CcMorphConcurrent, SharedSourceMatchesSerialMorphs) {
  // The source is only ever read, so morphs on several threads may share
  // it: every cell owns its CcMorph, must place each node exactly where
  // a serial reorganize() does, and must leave the source's bytes alone.
  // Cells 0-3 run the four schemes colored, cells 4-7 uncolored.
  constexpr LayoutScheme Schemes[] = {LayoutScheme::Subtree,
                                      LayoutScheme::DepthFirst,
                                      LayoutScheme::Bfs, LayoutScheme::Random};
  constexpr size_t Cells = 8;
  constexpr uint64_t NumNodes = 16383;
  auto Tree = BinarySearchTree::build(NumNodes, LayoutScheme::Random);
  BstNode *Source = Tree.root();
  const std::vector<BstNode> Before = snapshotTree(Source);
  auto OptionsFor = [&](size_t Cell) {
    MorphOptions Options;
    Options.Scheme = Schemes[Cell % 4];
    Options.Color = Cell < 4;
    return Options;
  };

  using Morph = CcMorph<BstNode, BstAdapter>;
  std::vector<std::unique_ptr<Morph>> Concurrent(Cells);
  std::vector<BstNode *> Roots(Cells);
  SweepRunner Pool(4);
  Pool.run(Cells, [&](size_t Cell) {
    Concurrent[Cell] = std::make_unique<Morph>(smallParams());
    Roots[Cell] = Concurrent[Cell]->reorganize(Source, OptionsFor(Cell));
  });

  const std::vector<BstNode> After = snapshotTree(Source);
  ASSERT_EQ(Before.size(), After.size());
  EXPECT_EQ(std::memcmp(Before.data(), After.data(),
                        Before.size() * sizeof(BstNode)),
            0)
      << "a concurrent morph wrote to its source";

  for (size_t Cell = 0; Cell < Cells; ++Cell) {
    Morph Serial(smallParams());
    BstNode *SerialRoot = Serial.reorganize(Source, OptionsFor(Cell));
    std::vector<std::pair<BstNode *, BstNode *>> Pairs;
    seedref::pairNodes<BstNode, BstAdapter>(SerialRoot, Roots[Cell], Pairs);
    ASSERT_EQ(Pairs.size(), NumNodes) << "cell " << Cell;
    for (const auto &[S, C] : Pairs) {
      seedref::Placement A = seedref::placementOf(*Serial.arena(), S);
      seedref::Placement B =
          seedref::placementOf(*Concurrent[Cell]->arena(), C);
      ASSERT_TRUE(A == B) << "cell " << Cell << ": frame " << A.Frame << "/"
                          << B.Frame << " offset " << A.Offset << "/"
                          << B.Offset;
      EXPECT_EQ(S->Key, C->Key);
    }
    EXPECT_EQ(Serial.stats().ClusterCount,
              Concurrent[Cell]->stats().ClusterCount);
    EXPECT_EQ(Serial.stats().HotNodes, Concurrent[Cell]->stats().HotNodes);
    EXPECT_EQ(Serial.stats().FrontierPeak,
              Concurrent[Cell]->stats().FrontierPeak);
  }
}
