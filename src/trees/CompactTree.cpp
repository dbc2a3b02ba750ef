//===- trees/CompactTree.cpp - 32-bit-offset trees (paper regime) -----------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "trees/CompactTree.h"

#include "core/ClusterOrder.h"
#include "core/OffsetLayout.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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

namespace {

constexpr unsigned CompactMaxKeys = 4;

struct TempBNode {
  uint16_t Count = 0;
  uint16_t Leaf = 0;
  uint32_t Keys[CompactMaxKeys] = {};
  uint32_t Values[CompactMaxKeys] = {};
  int64_t Kids[CompactMaxKeys + 1] = {-1, -1, -1, -1, -1};
  uint32_t MinKey = 0;
};

} // namespace

CompactBTree CompactBTree::buildFromSorted(
    const std::vector<uint32_t> &Keys, const CacheParams &Params,
    double FillFactor, bool Color) {
  assert(!Keys.empty() && "B-tree needs at least one key");
  assert(FillFactor > 0.0 && FillFactor <= 1.0 && "bad fill factor");

  unsigned KeysPerLeaf = std::clamp<unsigned>(
      static_cast<unsigned>(std::lround(CompactMaxKeys * FillFactor)), 1,
      CompactMaxKeys);
  unsigned KidsPerNode = KeysPerLeaf + 1;

  std::vector<TempBNode> Pool;
  std::vector<int64_t> Level;

  for (size_t Begin = 0; Begin < Keys.size(); Begin += KeysPerLeaf) {
    size_t End = std::min(Begin + KeysPerLeaf, Keys.size());
    TempBNode Leaf;
    Leaf.Leaf = 1;
    for (size_t I = Begin; I < End; ++I) {
      Leaf.Values[Leaf.Count] = static_cast<uint32_t>(I);
      Leaf.Keys[Leaf.Count++] = Keys[I];
    }
    Leaf.MinKey = Keys[Begin];
    Level.push_back(static_cast<int64_t>(Pool.size()));
    Pool.push_back(Leaf);
  }

  unsigned Height = 1;
  while (Level.size() > 1) {
    size_t NumKids = Level.size();
    size_t NumParents = (NumKids + KidsPerNode - 1) / KidsPerNode;
    size_t Base = NumKids / NumParents;
    size_t Extra = NumKids % NumParents;
    std::vector<int64_t> Next;
    size_t Cursor = 0;
    for (size_t P = 0; P < NumParents; ++P) {
      size_t Take = Base + (P < Extra ? 1 : 0);
      TempBNode Parent;
      for (size_t I = 0; I < Take; ++I) {
        int64_t Kid = Level[Cursor + I];
        Parent.Kids[I] = Kid;
        if (I > 0) {
          Parent.Values[Parent.Count] = Pool[Kid].MinKey / 2;
          Parent.Keys[Parent.Count++] = Pool[Kid].MinKey;
        }
      }
      Parent.MinKey = Pool[Level[Cursor]].MinKey;
      Next.push_back(static_cast<int64_t>(Pool.size()));
      Pool.push_back(Parent);
      Cursor += Take;
    }
    Level = std::move(Next);
    ++Height;
  }
  int64_t RootIndex = Level[0];

  // Breadth-first placement, one block-aligned node per cluster,
  // colored top-down.
  ClusterOrder<int64_t> Order;
  Order.plan({&RootIndex, 1}, LayoutScheme::Bfs, 1,
             [&](int64_t N, auto &&Visit) {
               if (!Pool[N].Leaf)
                 for (unsigned I = 0; I <= Pool[N].Count; ++I)
                   if (Pool[N].Kids[I] >= 0)
                     Visit(I, Pool[N].Kids[I]);
             });
  OffsetLayout Layout(Params, Color);
  std::vector<uint32_t> Offsets(Pool.size());
  for (const auto &It : Order.items()) {
    bool WasHot = false;
    uint64_t Offset = Layout.place(sizeof(CompactBTreeNode), WasHot);
    assert(Offset < CompactNull && "region exceeds 32-bit offsets");
    Offsets[It.Node] = static_cast<uint32_t>(Offset);
  }

  CompactBTree Tree;
  Tree.NumNodes = Pool.size();
  Tree.Height = Height;
  Tree.Base = allocateAligned(Layout.regionAlign(Params), Layout.regionBytes());
  for (size_t I = 0; I < Pool.size(); ++I) {
    auto *N = reinterpret_cast<CompactBTreeNode *>(Tree.Base.get() +
                                                   Offsets[I]);
    N->Count = Pool[I].Count;
    N->Leaf = Pool[I].Leaf;
    for (unsigned K = 0; K < CompactMaxKeys; ++K) {
      N->Keys[K] = Pool[I].Keys[K];
      N->Values[K] = Pool[I].Values[K];
    }
    for (unsigned K = 0; K <= CompactMaxKeys; ++K)
      N->Kids[K] =
          Pool[I].Kids[K] >= 0 ? Offsets[Pool[I].Kids[K]] : CompactNull;
  }
  Tree.RootOffset = Offsets[RootIndex];
  return Tree;
}
