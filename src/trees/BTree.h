//===- trees/BTree.h - In-core B-tree with block-sized nodes ---*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-core B-tree baseline of the paper's Figure 5: nodes are sized
/// to exactly one L2 cache block (64 bytes: 4 keys + 5 children) and the
/// tree is bulk-loaded at a configurable fill factor, modeling the space
/// B-trees reserve "to handle insertion gracefully" — the reason the
/// paper finds them less cache-efficient than transparent C-trees. The
/// tree can optionally be colored (top levels in the hot cache region),
/// as the paper's baseline was.
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
/// bulk load; the fill factor reserves the slack an insert-ready B-tree
/// would carry.
class BTree {
public:
  struct Options {
    /// Fraction of each node's key capacity used at bulk load (0..1].
    /// 0.69 approximates the steady-state utilization of random
    /// insertion.
    double FillFactor = 0.69;
    /// Color the top of the tree into the hot cache region.
    bool Color = true;
  };

  /// Builds from strictly increasing \p Keys.
  static BTree buildFromSorted(const std::vector<uint32_t> &Keys,
                               const CacheParams &Params,
                               const Options &Opts);
  static BTree buildFromSorted(const std::vector<uint32_t> &Keys,
                               const CacheParams &Params) {
    return buildFromSorted(Keys, Params, Options());
  }

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
  uint64_t storageBytes() const { return Nodes * sizeof(BTreeNode); }

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
