//===- trees/BinaryTree.h - Pointer BST with layout control ----*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A balanced binary search tree whose *memory layout* is an independent
/// axis from its *shape* — the object under study in the paper's Figure 5
/// microbenchmark. The same logical tree can be materialized with
/// random, depth-first, or breadth-first node placement, and then
/// reorganized by ccmorph into a transparent C-tree.
///
/// Keys are the odd numbers 1, 3, ..., 2n-1 so that every odd key is
/// present and even keys probe unsuccessfully.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_TREES_BINARYTREE_H
#define CCL_TREES_BINARYTREE_H

#include "core/CcMorph.h"
#include "support/Align.h"
#include "support/FlatMap.h"

#include <cstdint>

namespace ccl::trees {

/// A C-style BST node (24 bytes with 64-bit pointers; the paper's
/// SPARC-32 node was 20 bytes, so one fewer node fits per L2 block here).
struct BstNode {
  uint32_t Key;
  uint32_t Value;
  BstNode *Left;
  BstNode *Right;
};

/// ccmorph adapter for BstNode (the paper's `next_node` of Figure 3).
struct BstAdapter {
  static constexpr unsigned MaxKids = 2;
  static constexpr bool HasParent = false;

  BstNode *getKid(BstNode *N, unsigned I) const {
    return I == 0 ? N->Left : N->Right;
  }
  void setKid(BstNode *N, unsigned I, BstNode *Kid) const {
    (I == 0 ? N->Left : N->Right) = Kid;
  }
};

/// Searches the subtree rooted at \p Root for \p Key through access
/// policy \p A. Returns the node or null. `Ticks` per visited node model
/// the compare-and-branch work for the simulator's busy fraction.
template <typename Access>
const BstNode *bstSearch(const BstNode *Root, uint32_t Key, Access &A) {
  const BstNode *N = Root;
  while (N) {
    uint32_t NodeKey = A.load(&N->Key);
    A.tick(2);
    if (NodeKey == Key)
      return N;
    N = Key < NodeKey ? A.load(&N->Left) : A.load(&N->Right);
  }
  return nullptr;
}

/// Searches like bstSearch while recording a per-node access count into
/// \p Counts — the program-side half of profile-guided placement
/// (paper §7: "profiling" as the path to less programmer effort).
template <typename Access>
const BstNode *
bstSearchProfiled(const BstNode *Root, uint32_t Key, Access &A,
                  PtrCountMap &Counts) {
  const BstNode *N = Root;
  while (N) {
    ++Counts[N];
    uint32_t NodeKey = A.load(&N->Key);
    A.tick(2);
    if (NodeKey == Key)
      return N;
    N = Key < NodeKey ? A.load(&N->Left) : A.load(&N->Right);
  }
  return nullptr;
}

/// A balanced complete BST over keys 1,3,...,2n-1 with an explicit
/// memory-placement scheme. Owns its node storage.
class BinarySearchTree {
public:
  /// Builds a tree of \p NumNodes nodes laid out per \p Scheme.
  /// Subtree scheme here means BFS placement (true subtree clustering
  /// requires ccmorph's block alignment; use CTree for that).
  static BinarySearchTree build(uint64_t NumNodes, LayoutScheme Scheme,
                                uint64_t Seed = 0x7ee5eedULL);

  BinarySearchTree(BinarySearchTree &&) = default;
  BinarySearchTree &operator=(BinarySearchTree &&) = default;

  BstNode *root() { return Root; }
  const BstNode *root() const { return Root; }
  uint64_t size() const { return NumNodes; }

  /// Largest key present (2n - 1).
  uint32_t maxKey() const { return static_cast<uint32_t>(2 * NumNodes - 1); }

  /// Key of the I-th smallest element (2I + 1).
  static uint32_t keyAt(uint64_t I) {
    return static_cast<uint32_t>(2 * I + 1);
  }

  template <typename Access>
  const BstNode *search(uint32_t Key, Access &A) const {
    return bstSearch(Root, Key, A);
  }

  /// Bytes consumed by node storage.
  uint64_t storageBytes() const { return NumNodes * sizeof(BstNode); }

  /// The node array, storageBytes() long.
  const BstNode *nodes() const {
    return reinterpret_cast<const BstNode *>(Storage.get());
  }

private:
  BinarySearchTree() = default;

  /// Aligned to 4 KiB only: its offset inside a simulated 1 MiB unit
  /// follows where the host maps it.
  AlignedBuffer Storage;
  BstNode *Root = nullptr;
  uint64_t NumNodes = 0;
};

/// Verifies BST ordering and node count; used by tests and as a sanity
/// check after reorganization. Returns true if the subtree is a valid
/// BST over exactly \p ExpectedNodes nodes.
bool verifyBst(const BstNode *Root, uint64_t ExpectedNodes);

} // namespace ccl::trees

#endif // CCL_TREES_BINARYTREE_H
