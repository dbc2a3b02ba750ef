//===- trees/BTree.cpp - In-core B-tree with block-sized nodes -------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "trees/BTree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ccl;
using namespace ccl::trees;

BTreeShape ccl::trees::bulkLoadBTree(size_t NumKeys, double FillFactor) {
  assert(NumKeys > 0 && "B-tree needs at least one key");
  assert(FillFactor > 0.0 && FillFactor <= 1.0 &&
         "fill factor must be in (0, 1]");
  constexpr unsigned MaxKeys = 4;
  unsigned KeysPerLeaf = std::clamp<unsigned>(
      static_cast<unsigned>(std::lround(MaxKeys * FillFactor)), 1, MaxKeys);
  unsigned KidsPerNode = KeysPerLeaf + 1;

  BTreeShape Shape;
  std::vector<BTreeShape::Node> &Nodes = Shape.Nodes;
  for (size_t Begin = 0; Begin < NumKeys; Begin += KeysPerLeaf) {
    BTreeShape::Node Leaf;
    Leaf.Leaf = true;
    for (size_t I = Begin; I < std::min(Begin + KeysPerLeaf, NumKeys); ++I)
      Leaf.Keys[Leaf.Count++] = static_cast<uint32_t>(I);
    Nodes.push_back(Leaf);
  }
  auto MinKey = [&](uint32_t N) {
    while (!Nodes[N].Leaf)
      N = Nodes[N].Kids[0];
    return Nodes[N].Keys[0];
  };

  // Internal levels over [LevelBegin, end) until a single root remains.
  size_t LevelBegin = 0;
  while (Nodes.size() - LevelBegin > 1) {
    size_t NumKids = Nodes.size() - LevelBegin;
    size_t NumParents = (NumKids + KidsPerNode - 1) / KidsPerNode;
    size_t Base = NumKids / NumParents;
    size_t Extra = NumKids % NumParents;
    size_t Cursor = LevelBegin;
    LevelBegin = Nodes.size();
    for (size_t P = 0; P < NumParents; ++P) {
      size_t Take = Base + (P < Extra ? 1 : 0);
      BTreeShape::Node Parent;
      for (size_t I = 0; I < Take; ++I) {
        Parent.Kids[I] = static_cast<uint32_t>(Cursor + I);
        if (I > 0)
          Parent.Keys[Parent.Count++] = MinKey(Parent.Kids[I]);
      }
      Nodes.push_back(Parent);
      Cursor += Take;
    }
    ++Shape.Height;
  }
  return Shape;
}

BTree BTree::buildFromSorted(const std::vector<uint32_t> &Keys,
                             const CacheParams &Params) {
  assert(std::is_sorted(Keys.begin(), Keys.end()) && "keys must be sorted");
  BTreeShape Shape = bulkLoadBTree(Keys.size(), /*FillFactor=*/0.69);
  std::vector<BTreeNode> Nodes(Shape.Nodes.size(), BTreeNode{});
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const BTreeShape::Node &S = Shape.Nodes[I];
    Nodes[I].Count = static_cast<uint16_t>(S.Count);
    Nodes[I].Leaf = S.Leaf;
    for (unsigned K = 0; K < S.Count; ++K)
      Nodes[I].Keys[K] = Keys[S.Keys[K]];
    for (unsigned K = 0; !S.Leaf && K <= S.Count; ++K)
      Nodes[I].Kids[K] = &Nodes[S.Kids[K]];
  }

  BTree Tree;
  Tree.Nodes = Nodes.size();
  Tree.Height = Shape.Height;

  // Place the structure: ccmorph copies it into a contiguous arena (BFS
  // order, one block-aligned node per cluster) and colors the top
  // levels into the hot cache region.
  MorphOptions MO;
  MO.Scheme = LayoutScheme::Bfs;
  MO.NodesPerBlock = 1;
  Tree.Morph =
      std::make_unique<CcMorph<BTreeNode, BTreeAdapter>>(Params);
  Tree.Root = Tree.Morph->reorganize(&Nodes.back(), MO);
  return Tree;
}
