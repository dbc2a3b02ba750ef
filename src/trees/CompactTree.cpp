//===- trees/CompactTree.cpp - 32-bit-offset trees (paper regime) -----------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "trees/CompactTree.h"

#include "core/ClusterOrder.h"
#include "core/OffsetLayout.h"
#include "trees/BTree.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

using namespace ccl;
using namespace ccl::trees;

namespace {

struct TempNode {
  uint32_t Key;
  uint32_t Value;
  int64_t Left = -1;
  int64_t Right = -1;
};

/// Builds the balanced shape in preorder creation order.
int64_t buildTemp(std::vector<TempNode> &Nodes, uint64_t Lo, uint64_t Hi) {
  if (Lo >= Hi)
    return -1;
  uint64_t Mid = Lo + (Hi - Lo) / 2;
  int64_t Index = static_cast<int64_t>(Nodes.size());
  Nodes.push_back(TempNode{static_cast<uint32_t>(2 * Mid + 1),
                           static_cast<uint32_t>(Mid), -1, -1});
  int64_t Left = buildTemp(Nodes, Lo, Mid);
  int64_t Right = buildTemp(Nodes, Mid + 1, Hi);
  Nodes[Index].Left = Left;
  Nodes[Index].Right = Right;
  return Index;
}

} // namespace

CompactTree CompactTree::build(uint64_t NumKeys, const CacheParams &Params,
                               LayoutScheme Scheme, bool Color,
                               size_t NodesPerBlock, uint64_t Seed) {
  assert(NumKeys > 0 && "tree must be nonempty");
  CompactTree Tree;
  Tree.NumNodes = NumKeys;
  Tree.NodesPerBlock =
      NodesPerBlock ? NodesPerBlock
                    : std::max<size_t>(1, Params.BlockBytes /
                                              sizeof(CompactBstNode));

  std::vector<TempNode> Temp;
  Temp.reserve(NumKeys);
  buildTemp(Temp, 0, NumKeys);

  // Random shuffles the preorder (creation order) of the nodes.
  ClusterOrder<int64_t> Order;
  const int64_t Root = 0;
  Order.plan({&Root, 1},
             Scheme == LayoutScheme::Random ? LayoutScheme::DepthFirst
                                            : Scheme,
             Tree.NodesPerBlock, [&](int64_t N, auto &&Visit) {
               if (Temp[N].Left >= 0)
                 Visit(0, Temp[N].Left);
               if (Temp[N].Right >= 0)
                 Visit(1, Temp[N].Right);
             });
  std::vector<uint32_t> Slots(Temp.size());
  std::iota(Slots.begin(), Slots.end(), 0u);
  if (Scheme == LayoutScheme::Random) {
    Xoshiro256 Rng(Seed);
    Rng.shuffle(Slots);
  }

  OffsetLayout Layout(Params, Color);
  std::vector<uint32_t> Offsets(Temp.size());
  for (size_t C = 0; C < Order.clusters(); ++C) {
    size_t Begin = Order.clusterBegin(C);
    size_t Size = Order.clusterEnd(C) - Begin;
    bool WasHot = false;
    uint64_t Offset = Layout.place(Size * sizeof(CompactBstNode), WasHot);
    if (WasHot)
      Tree.HotNodes += Size;
    for (size_t I = 0; I < Size; ++I) {
      uint64_t NodeOffset = Offset + I * sizeof(CompactBstNode);
      assert(NodeOffset < CompactNull && "region exceeds 32-bit offsets");
      Offsets[Order.items()[Slots[Begin + I]].Node] =
          static_cast<uint32_t>(NodeOffset);
    }
  }

  Tree.RegionBytes = Layout.regionBytes();
  Tree.Base = allocateAligned(Layout.regionAlign(Params), Tree.RegionBytes);

  for (size_t I = 0; I < Temp.size(); ++I) {
    auto *N = reinterpret_cast<CompactBstNode *>(Tree.Base.get() +
                                                 Offsets[I]);
    N->Key = Temp[I].Key;
    N->Value = Temp[I].Value;
    N->Left = Temp[I].Left >= 0 ? Offsets[Temp[I].Left] : CompactNull;
    N->Right = Temp[I].Right >= 0 ? Offsets[Temp[I].Right] : CompactNull;
  }
  Tree.RootOffset = Offsets[0];
  return Tree;
}

//===----------------------------------------------------------------------===//
// CompactBTree
//===----------------------------------------------------------------------===//

CompactBTree CompactBTree::buildFromSorted(const std::vector<uint32_t> &Keys,
                                           const CacheParams &Params,
                                           double FillFactor) {
  BTreeShape Shape = bulkLoadBTree(Keys.size(), FillFactor);
  const std::vector<BTreeShape::Node> &Nodes = Shape.Nodes;

  // Breadth-first placement, one block-aligned node per cluster,
  // colored top-down.
  ClusterOrder<uint32_t> Order;
  const uint32_t RootIndex = static_cast<uint32_t>(Nodes.size() - 1);
  Order.plan({&RootIndex, 1}, LayoutScheme::Bfs, 1,
             [&](uint32_t N, auto &&Visit) {
               for (unsigned I = 0; !Nodes[N].Leaf && I <= Nodes[N].Count;
                    ++I)
                 Visit(I, Nodes[N].Kids[I]);
             });
  OffsetLayout Layout(Params, /*Color=*/true);
  std::vector<uint32_t> Offsets(Nodes.size());
  for (const auto &It : Order.items()) {
    bool WasHot = false;
    uint64_t Offset = Layout.place(sizeof(CompactBTreeNode), WasHot);
    assert(Offset < CompactNull && "region exceeds 32-bit offsets");
    Offsets[It.Node] = static_cast<uint32_t>(Offset);
  }

  // A leaf's value is its key's position, a separator's half its key.
  CompactBTree Tree;
  Tree.NumNodes = Nodes.size();
  Tree.Height = Shape.Height;
  Tree.Base = allocateAligned(Layout.regionAlign(Params), Layout.regionBytes());
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const BTreeShape::Node &S = Nodes[I];
    auto *N = reinterpret_cast<CompactBTreeNode *>(Tree.Base.get() +
                                                   Offsets[I]);
    *N = CompactBTreeNode{};
    N->Count = static_cast<uint16_t>(S.Count);
    N->Leaf = S.Leaf;
    for (unsigned K = 0; K < S.Count; ++K) {
      N->Keys[K] = Keys[S.Keys[K]];
      N->Values[K] = S.Leaf ? S.Keys[K] : Keys[S.Keys[K]] / 2;
    }
    for (unsigned K = 0; K <= 4; ++K)
      N->Kids[K] = !S.Leaf && K <= S.Count ? Offsets[S.Kids[K]] : CompactNull;
  }
  Tree.RootOffset = Offsets[RootIndex];
  return Tree;
}
