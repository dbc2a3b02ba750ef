//===- trees/BinaryTree.cpp - Pointer BST with layout control --------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "trees/BinaryTree.h"

#include "support/Random.h"

#include <deque>
#include <numeric>
#include <vector>

using namespace ccl;
using namespace ccl::trees;

namespace {

/// Assigns nodes of the balanced shape over [0, n) to memory slots in
/// preorder, through an optional slot permutation.
class PreorderBuilder {
public:
  PreorderBuilder(BstNode *Nodes, const std::vector<uint64_t> *Perm)
      : Nodes(Nodes), Perm(Perm) {}

  BstNode *build(uint64_t Lo, uint64_t Hi) {
    if (Lo >= Hi)
      return nullptr;
    uint64_t Slot = Perm ? (*Perm)[Next++] : Next++;
    BstNode *N = &Nodes[Slot];
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    N->Key = BinarySearchTree::keyAt(Mid);
    N->Value = static_cast<uint32_t>(Mid);
    N->Left = build(Lo, Mid);
    N->Right = build(Mid + 1, Hi);
    return N;
  }

private:
  BstNode *Nodes;
  const std::vector<uint64_t> *Perm;
  uint64_t Next = 0;
};

/// Assigns memory slots in breadth-first order.
BstNode *buildBfs(BstNode *Nodes, uint64_t NumNodes) {
  struct Item {
    uint64_t Lo;
    uint64_t Hi;
    BstNode **Link;
  };
  BstNode *Root = nullptr;
  uint64_t Next = 0;
  std::deque<Item> Queue{{0, NumNodes, &Root}};
  while (!Queue.empty()) {
    auto [Lo, Hi, Link] = Queue.front();
    Queue.pop_front();
    if (Lo >= Hi) {
      *Link = nullptr;
      continue;
    }
    BstNode *N = &Nodes[Next++];
    *Link = N;
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    N->Key = BinarySearchTree::keyAt(Mid);
    N->Value = static_cast<uint32_t>(Mid);
    Queue.push_back({Lo, Mid, &N->Left});
    Queue.push_back({Mid + 1, Hi, &N->Right});
  }
  return Root;
}

} // namespace

BinarySearchTree BinarySearchTree::build(uint64_t NumNodes,
                                         LayoutScheme Scheme,
                                         uint64_t Seed) {
  assert(NumNodes > 0 && "tree must be nonempty");
  BinarySearchTree Tree;
  Tree.NumNodes = NumNodes;
  Tree.Storage = allocateAligned(4096, Tree.storageBytes());
  auto *Nodes = reinterpret_cast<BstNode *>(Tree.Storage.get());

  switch (Scheme) {
  case LayoutScheme::DepthFirst: {
    PreorderBuilder Builder(Nodes, nullptr);
    Tree.Root = Builder.build(0, NumNodes);
    break;
  }
  case LayoutScheme::Random: {
    std::vector<uint64_t> Perm(NumNodes);
    std::iota(Perm.begin(), Perm.end(), 0);
    Xoshiro256 Rng(Seed);
    Rng.shuffle(Perm);
    PreorderBuilder Builder(Nodes, &Perm);
    Tree.Root = Builder.build(0, NumNodes);
    break;
  }
  case LayoutScheme::Bfs:
  case LayoutScheme::Subtree:
    Tree.Root = buildBfs(Nodes, NumNodes);
    break;
  }
  return Tree;
}

bool ccl::trees::verifyBst(const BstNode *Root, uint64_t ExpectedNodes) {
  struct Frame {
    const BstNode *N;
    uint64_t Min; // Inclusive key bounds, shifted by one so zero works.
    uint64_t Max;
  };
  if (!Root)
    return ExpectedNodes == 0;

  uint64_t Count = 0;
  std::vector<Frame> Stack{{Root, 0, ~0ULL}};
  while (!Stack.empty()) {
    auto [N, Min, Max] = Stack.back();
    Stack.pop_back();
    uint64_t Key = uint64_t(N->Key) + 1;
    if (Key < Min || Key > Max)
      return false;
    ++Count;
    if (N->Left)
      Stack.push_back({N->Left, Min, Key - 1});
    if (N->Right)
      Stack.push_back({N->Right, Key + 1, Max});
  }
  return Count == ExpectedNodes;
}
