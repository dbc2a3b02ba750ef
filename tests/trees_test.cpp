//===- tests/trees_test.cpp - BST / C-tree / B-tree tests --------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "trees/BTree.h"
#include "trees/BinaryTree.h"
#include "trees/CTree.h"
#include "trees/CompactTree.h"

#include "sim/AccessPolicy.h"

#include <gtest/gtest.h>

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

std::vector<uint32_t> oddKeys(uint64_t N) {
  std::vector<uint32_t> Keys(N);
  for (uint64_t I = 0; I < N; ++I)
    Keys[I] = BinarySearchTree::keyAt(I);
  return Keys;
}

} // namespace

//===----------------------------------------------------------------------===//
// BinarySearchTree
//===----------------------------------------------------------------------===//

class BstLayouts : public ::testing::TestWithParam<LayoutScheme> {};

TEST_P(BstLayouts, ValidBstWithAllKeys) {
  const uint64_t N = 1000;
  auto Tree = BinarySearchTree::build(N, GetParam());
  EXPECT_TRUE(verifyBst(Tree.root(), N));
  sim::NativeAccess A;
  for (uint64_t I = 0; I < N; I += 17)
    EXPECT_NE(Tree.search(BinarySearchTree::keyAt(I), A), nullptr);
}

TEST_P(BstLayouts, AbsentKeysNotFound) {
  auto Tree = BinarySearchTree::build(500, GetParam());
  sim::NativeAccess A;
  EXPECT_EQ(Tree.search(0, A), nullptr);
  EXPECT_EQ(Tree.search(2, A), nullptr); // Even keys absent.
  EXPECT_EQ(Tree.search(Tree.maxKey() + 1, A), nullptr);
}

TEST_P(BstLayouts, BalancedHeight) {
  const uint64_t N = (1 << 12) - 1;
  auto Tree = BinarySearchTree::build(N, GetParam());
  // Depth of a complete tree with 4095 nodes is 12; walk to a leaf.
  const BstNode *Node = Tree.root();
  int Depth = 0;
  while (Node) {
    Node = Node->Left;
    ++Depth;
  }
  EXPECT_LE(Depth, 13);
  EXPECT_GE(Depth, 11);
}

INSTANTIATE_TEST_SUITE_P(Layouts, BstLayouts,
                         ::testing::Values(LayoutScheme::Random,
                                           LayoutScheme::DepthFirst,
                                           LayoutScheme::Bfs));

TEST(BinarySearchTree, DepthFirstLayoutIsPreorder) {
  auto Tree = BinarySearchTree::build(63, LayoutScheme::DepthFirst);
  // Root occupies the first slot of the page-aligned node array; its left
  // child the next one.
  EXPECT_EQ(Tree.root(), Tree.nodes());
  EXPECT_TRUE(isAligned(addrOf(Tree.nodes()), 4096));
  EXPECT_EQ(addrOf(Tree.root()->Left),
            addrOf(Tree.root()) + sizeof(BstNode));
}

TEST(BinarySearchTree, BfsLayoutIsLevelOrder) {
  auto Tree = BinarySearchTree::build(63, LayoutScheme::Bfs);
  // Root, then its two children consecutively.
  EXPECT_EQ(addrOf(Tree.root()->Left),
            addrOf(Tree.root()) + sizeof(BstNode));
  EXPECT_EQ(addrOf(Tree.root()->Right),
            addrOf(Tree.root()) + 2 * sizeof(BstNode));
}

TEST(BinarySearchTree, RandomLayoutsDifferBySeed) {
  auto T1 = BinarySearchTree::build(100, LayoutScheme::Random, 1);
  auto T2 = BinarySearchTree::build(100, LayoutScheme::Random, 2);
  // Same logical tree...
  EXPECT_TRUE(verifyBst(T1.root(), 100));
  EXPECT_TRUE(verifyBst(T2.root(), 100));
  // ...but (almost surely) different placement of the root.
  uint64_t Off1 = addrOf(T1.root()->Left) - addrOf(T1.root());
  uint64_t Off2 = addrOf(T2.root()->Left) - addrOf(T2.root());
  EXPECT_TRUE(Off1 != Off2 || T1.root()->Key == T2.root()->Key);
}

TEST(BinarySearchTree, KeyHelpers) {
  EXPECT_EQ(BinarySearchTree::keyAt(0), 1u);
  EXPECT_EQ(BinarySearchTree::keyAt(5), 11u);
  auto Tree = BinarySearchTree::build(10, LayoutScheme::Bfs);
  EXPECT_EQ(Tree.maxKey(), 19u);
  EXPECT_EQ(Tree.storageBytes(), 10 * sizeof(BstNode));
}

TEST(BinarySearchTree, SearchCountsSimulatedAccesses) {
  auto Tree = BinarySearchTree::build(1023, LayoutScheme::Random);
  sim::MemoryHierarchy M(sim::HierarchyConfig::ultraSparcE5000());
  sim::SimAccess A(M);
  Tree.search(BinarySearchTree::keyAt(0), A);
  // A search touches ~log2(1024) nodes, each with >= 2 field loads.
  EXPECT_GE(M.stats().Reads, 10u);
}

TEST(VerifyBst, RejectsCorruptTree) {
  auto Tree = BinarySearchTree::build(15, LayoutScheme::DepthFirst);
  BstNode *Root = Tree.root();
  std::swap(Root->Left, Root->Right); // Break ordering.
  EXPECT_FALSE(verifyBst(Root, 15));
}

TEST(VerifyBst, RejectsWrongCount) {
  auto Tree = BinarySearchTree::build(15, LayoutScheme::DepthFirst);
  EXPECT_FALSE(verifyBst(Tree.root(), 14));
}

//===----------------------------------------------------------------------===//
// CTree
//===----------------------------------------------------------------------===//

TEST(CTree, AdoptPreservesSearch) {
  const uint64_t N = 2047;
  auto Tree = BinarySearchTree::build(N, LayoutScheme::Random);
  CTree CT(smallParams());
  CT.adopt(Tree.root());
  EXPECT_TRUE(verifyBst(CT.root(), N));
  sim::NativeAccess A;
  for (uint64_t I = 0; I < N; I += 11)
    EXPECT_NE(CT.search(BinarySearchTree::keyAt(I), A), nullptr);
  EXPECT_EQ(CT.search(4, A), nullptr);
}

TEST(CTree, RootIsHot) {
  auto Tree = BinarySearchTree::build(4095, LayoutScheme::Random);
  CTree CT(smallParams());
  CT.adopt(Tree.root());
  EXPECT_TRUE(CT.arena()->isHot(CT.root()));
  EXPECT_GT(CT.morphStats().HotNodes, 0u);
}

//===----------------------------------------------------------------------===//
// BTree
//===----------------------------------------------------------------------===//

TEST(BTree, NodeIsOneCacheBlock) {
  EXPECT_EQ(sizeof(BTreeNode), 64u);
}

/// The bulk loader both B-trees share, swept over fill factors through
/// CompactBTree, the one that takes a fill factor.
class BTreeFill : public ::testing::TestWithParam<double> {};

TEST_P(BTreeFill, ContainsAllKeys) {
  const uint64_t N = 5000;
  std::vector<uint32_t> Keys = oddKeys(N);
  CompactBTree Tree =
      CompactBTree::buildFromSorted(Keys, smallParams(), GetParam());
  sim::NativeAccess A;
  for (uint64_t I = 0; I < N; I += 7)
    EXPECT_TRUE(Tree.contains(Keys[I], A)) << "key " << Keys[I];
  EXPECT_FALSE(Tree.contains(0, A));
  EXPECT_FALSE(Tree.contains(2, A));
  EXPECT_FALSE(Tree.contains(Keys.back() + 2, A));
}

TEST_P(BTreeFill, HeightIsLogarithmic) {
  const uint64_t N = 10000;
  // Fill 0.3 degenerates to branching 2 (height ~log2 N = 15); higher
  // fills give 3-5-way branching.
  CompactBTree Tree =
      CompactBTree::buildFromSorted(oddKeys(N), smallParams(), GetParam());
  EXPECT_LE(Tree.height(), 16u);
  EXPECT_GE(Tree.height(), 5u);
}

INSTANTIATE_TEST_SUITE_P(FillFactors, BTreeFill,
                         ::testing::Values(0.3, 0.5, 0.69, 1.0));

TEST(BTree, SingleKey) {
  BTree Tree = BTree::buildFromSorted({42}, smallParams());
  sim::NativeAccess A;
  EXPECT_TRUE(Tree.contains(42, A));
  EXPECT_FALSE(Tree.contains(41, A));
  EXPECT_EQ(Tree.height(), 1u);
  EXPECT_EQ(Tree.nodeCount(), 1u);
}

TEST(BTree, ColoredRootIsHot) {
  std::vector<uint32_t> Keys = oddKeys(3000);
  BTree Tree = BTree::buildFromSorted(Keys, smallParams());
  sim::NativeAccess A;
  EXPECT_TRUE(Tree.contains(Keys[123], A));
  CacheParams P = smallParams();
  EXPECT_LT(P.setOf(addrOf(Tree.root())), P.HotSets);
}

TEST(BTree, SimulatedSearchTouchesFewerBlocksThanBst) {
  const uint64_t N = 20000;
  auto Bst = BinarySearchTree::build(N, LayoutScheme::Random);
  BTree BT = BTree::buildFromSorted(oddKeys(N), smallParams());
  sim::HierarchyConfig Config = sim::HierarchyConfig::ultraSparcE5000();

  sim::MemoryHierarchy M1(Config);
  sim::SimAccess A1(M1);
  sim::MemoryHierarchy M2(Config);
  sim::SimAccess A2(M2);
  for (uint64_t I = 0; I < N; I += 97) {
    Bst.search(BinarySearchTree::keyAt(I), A1);
    BT.contains(BinarySearchTree::keyAt(I), A2);
  }
  // A B-tree visits ~log_4(N) nodes vs log_2(N): fewer L2 misses.
  EXPECT_LT(M2.stats().L2Misses, M1.stats().L2Misses);
}

//===----------------------------------------------------------------------===//
// CompactTree / CompactBTree (32-bit-offset paper regime)
//===----------------------------------------------------------------------===//

class CompactLayouts
    : public ::testing::TestWithParam<std::tuple<LayoutScheme, bool>> {};

TEST_P(CompactLayouts, ContainsExactlyOddKeys) {
  auto [Scheme, Color] = GetParam();
  const uint64_t N = 3000;
  CompactTree Tree = CompactTree::build(N, smallParams(), Scheme, Color);
  sim::NativeAccess A;
  for (uint64_t I = 0; I < N; I += 13)
    EXPECT_TRUE(Tree.contains(BinarySearchTree::keyAt(I), A)) << I;
  EXPECT_FALSE(Tree.contains(0, A));
  EXPECT_FALSE(Tree.contains(2, A));
  EXPECT_FALSE(Tree.contains(BinarySearchTree::keyAt(N - 1) + 2, A));
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndColors, CompactLayouts,
    ::testing::Combine(::testing::Values(LayoutScheme::Subtree,
                                         LayoutScheme::DepthFirst,
                                         LayoutScheme::Bfs,
                                         LayoutScheme::Random),
                       ::testing::Bool()));

TEST(CompactTree, NodeIsSixteenBytes) {
  EXPECT_EQ(sizeof(CompactBstNode), 16u);
  EXPECT_EQ(sizeof(CompactBTreeNode), 64u);
}

TEST(CompactTree, SubtreeClusterSharesBlock) {
  CacheParams P = smallParams();
  CompactTree Tree =
      CompactTree::build(1023, P, LayoutScheme::Subtree, /*Color=*/true);
  // k = 4 sixteen-byte nodes per 64-byte block: the root's cluster packs
  // the top of the tree into one block.
  EXPECT_EQ(Tree.nodesPerBlock(), 4u);
  EXPECT_GT(Tree.hotNodes(), 0u);
}

TEST(CompactTree, ColoringRespectsHotBudget) {
  CacheParams P = smallParams();
  CompactTree Tree =
      CompactTree::build(100000, P, LayoutScheme::Subtree, /*Color=*/true);
  EXPECT_LE(Tree.hotNodes() * sizeof(CompactBstNode),
            P.hotCapacityBytes());
  // Uncolored layout spans less address space (no gaps).
  CompactTree Plain = CompactTree::build(100000, P, LayoutScheme::Subtree,
                                         /*Color=*/false);
  EXPECT_EQ(Plain.hotNodes(), 0u);
  EXPECT_LE(Plain.regionBytes(), Tree.regionBytes());
}

TEST(CompactBTree, ContainsAcrossFills) {
  const uint64_t N = 4000;
  std::vector<uint32_t> Keys = oddKeys(N);
  sim::NativeAccess A;
  for (double Fill : {0.5, 0.69, 1.0}) {
    CompactBTree Tree =
        CompactBTree::buildFromSorted(Keys, smallParams(), Fill);
    for (uint64_t I = 0; I < N; I += 19)
      EXPECT_TRUE(Tree.contains(Keys[I], A)) << "fill " << Fill;
    EXPECT_FALSE(Tree.contains(2, A));
    EXPECT_GE(Tree.height(), 4u);
  }
}

TEST(CompactBTree, LowerFillMoreNodes) {
  std::vector<uint32_t> Keys = oddKeys(4000);
  CompactBTree Full = CompactBTree::buildFromSorted(Keys, smallParams(), 1.0);
  CompactBTree Half = CompactBTree::buildFromSorted(Keys, smallParams(), 0.5);
  EXPECT_GT(Half.nodeCount(), Full.nodeCount());
}

TEST(CompactTree, SimulatedSearchesWork) {
  const uint64_t N = 50000;
  CompactTree Tree = CompactTree::build(N, smallParams(),
                                        LayoutScheme::Subtree, true);
  sim::MemoryHierarchy M(sim::HierarchyConfig::ultraSparcE5000());
  sim::SimAccess A(M);
  unsigned Found = 0;
  for (uint64_t I = 0; I < N; I += 97)
    Found += Tree.contains(BinarySearchTree::keyAt(I), A) ? 1 : 0;
  EXPECT_EQ(Found, (N + 96) / 97);
  EXPECT_GT(M.stats().Reads, 0u);
}
