//===- trees/BTree.h - In-core B-tree with block-sized nodes ---*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-core B-tree baseline of the paper's Figure 5: nodes are sized
/// to exactly one L2 cache block (64 bytes: 4 keys + 5 children) and the
/// tree is bulk-loaded at a fill factor below one, modeling the space
/// B-trees reserve "to handle insertion gracefully" — the reason the
/// paper finds them less cache-efficient than transparent C-trees. The
/// tree is colored (top levels in the hot cache region), as the paper's
/// baseline was. The bulk loader is shared with CompactBTree.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_TREES_BTREE_H
#define CCL_TREES_BTREE_H

#include "core/CcMorph.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace ccl::trees {

/// A 64-byte B-tree node: up to 4 keys and 5 children.
struct BTreeNode {
  uint16_t Count; ///< Keys in use.
  uint16_t Leaf;  ///< Nonzero for leaf nodes.
  uint32_t Pad;
  uint32_t Keys[4];
  BTreeNode *Kids[5];
};
static_assert(sizeof(BTreeNode) == 64,
              "BTreeNode must fill exactly one 64-byte cache block");

/// The shape of a bulk-loaded B-tree, nodes leaves first, root last.
/// A node holds Count keys, each a position in the sorted key vector,
/// and, unless Leaf, Count + 1 kids, each an index into Nodes.
struct BTreeShape {
  struct Node {
    uint32_t Count = 0;
    bool Leaf = false;
    uint32_t Keys[4] = {};
    uint32_t Kids[5] = {};
  };
  std::vector<Node> Nodes;
  unsigned Height = 1;
};

/// Bulk-loads \p NumKeys sorted keys at \p FillFactor in (0, 1]: leaves
/// over runs of round(4 * FillFactor) keys, then internal levels that
/// split their kids as evenly as possible, each separator the smallest
/// key of its right-hand kid's subtree.
BTreeShape bulkLoadBTree(size_t NumKeys, double FillFactor);

/// ccmorph adapter for B-tree nodes.
struct BTreeAdapter {
  static constexpr unsigned MaxKids = 5;
  static constexpr bool HasParent = false;

  BTreeNode *getKid(BTreeNode *N, unsigned I) const {
    if (N->Leaf || I > N->Count)
      return nullptr;
    return N->Kids[I];
  }
  void setKid(BTreeNode *N, unsigned I, BTreeNode *Kid) const {
    N->Kids[I] = Kid;
  }
};

/// Bulk-loaded, search-optimized in-core B-tree. Matching the paper's
/// microbenchmark, no insertions or deletions are performed after the
/// bulk load; its 0.69 fill factor, the steady-state utilization of
/// random insertion, reserves the slack an insert-ready B-tree would
/// carry.
class BTree {
public:
  /// Builds from strictly increasing \p Keys.
  static BTree buildFromSorted(const std::vector<uint32_t> &Keys,
                               const CacheParams &Params);

  BTree(BTree &&) = default;
  BTree &operator=(BTree &&) = default;

  /// Membership query through access policy \p A.
  template <typename Access> bool contains(uint32_t Key, Access &A) const {
    const BTreeNode *N = Root;
    while (N) {
      uint16_t Count = A.load(&N->Count);
      uint16_t Leaf = A.load(&N->Leaf);
      A.tick(1);
      unsigned I = 0;
      while (I < Count) {
        uint32_t NodeKey = A.load(&N->Keys[I]);
        A.tick(2);
        if (Key == NodeKey)
          return true;
        if (Key < NodeKey)
          break;
        ++I;
      }
      if (Leaf)
        return false;
      N = A.load(&N->Kids[I]);
    }
    return false;
  }

  const BTreeNode *root() const { return Root; }
  unsigned height() const { return Height; }
  uint64_t nodeCount() const { return Nodes; }

  /// Colored node arena (telemetry region registration); null before
  /// the tree is built.
  const ColoredArena *arena() const {
    return Morph ? Morph->arena() : nullptr;
  }

private:
  BTree() = default;

  std::unique_ptr<CcMorph<BTreeNode, BTreeAdapter>> Morph;
  const BTreeNode *Root = nullptr;
  unsigned Height = 0;
  uint64_t Nodes = 0;
};

} // namespace ccl::trees

#endif // CCL_TREES_BTREE_H
