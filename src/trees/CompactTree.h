//===- trees/CompactTree.h - 32-bit-offset trees (paper regime) -*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's measurements were taken on 32-bit SPARC, where a BST node
/// is ~20 bytes and three nodes cluster into one 64-byte L2 block
/// (k = 3, §5.4). With 64-bit pointers our BstNode is 24 bytes (k = 2),
/// which blunts subtree clustering. This module reproduces the paper's
/// pointer-width regime with 16-byte nodes that use 32-bit byte offsets
/// into a single colored region instead of raw pointers (k = 4 for 64B
/// blocks):
///
///  * CompactTree — a balanced BST over offsets, built directly into a
///    subtree-clustered, colored layout (or the random / depth-first /
///    BFS comparison layouts);
///  * CompactBTree — the matching classic-B-tree baseline with 64-byte
///    nodes holding 4-byte keys, 4-byte values, and 4-byte child
///    offsets.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_TREES_COMPACTTREE_H
#define CCL_TREES_COMPACTTREE_H

#include "core/CacheParams.h"
#include "core/ClusterOrder.h"
#include "support/Align.h"

#include <cstdint>
#include <vector>

namespace ccl::trees {

/// 16-byte BST node (key + associated value, like the paper's ~20-byte
/// SPARC-32 nodes); Left/Right are byte offsets from the region base
/// (CompactNull = absent child).
struct CompactBstNode {
  uint32_t Key;
  uint32_t Value;
  uint32_t Left;
  uint32_t Right;
};
static_assert(sizeof(CompactBstNode) == 16, "compact node must be 16B");

inline constexpr uint32_t CompactNull = 0xFFFFFFFFu;

/// A balanced BST over keys 1,3,...,2n-1 in the 32-bit-offset regime,
/// laid out per a LayoutScheme with optional coloring.
class CompactTree {
public:
  /// \param NodesPerBlock cluster size k; 0 = BlockBytes / 16.
  static CompactTree build(uint64_t NumKeys, const CacheParams &Params,
                           LayoutScheme Scheme, bool Color,
                           size_t NodesPerBlock = 0,
                           uint64_t Seed = 0xC03Bac7ULL);

  CompactTree(CompactTree &&) = default;
  CompactTree &operator=(CompactTree &&) = default;

  template <typename Access> bool contains(uint32_t Key, Access &A) const {
    uint32_t Offset = RootOffset;
    while (Offset != CompactNull) {
      const auto *N = node(Offset);
      uint32_t NodeKey = A.load(&N->Key);
      A.tick(2);
      if (NodeKey == Key)
        return true;
      Offset = Key < NodeKey ? A.load(&N->Left) : A.load(&N->Right);
    }
    return false;
  }

  const CompactBstNode *node(uint32_t Offset) const {
    return reinterpret_cast<const CompactBstNode *>(Base.get() + Offset);
  }

  uint64_t size() const { return NumNodes; }
  /// Bytes of address space the layout spans (including coloring gaps).
  uint64_t regionBytes() const { return RegionBytes; }
  uint64_t hotNodes() const { return HotNodes; }
  size_t nodesPerBlock() const { return NodesPerBlock; }

private:
  CompactTree() = default;

  AlignedBuffer Base;
  uint32_t RootOffset = CompactNull;
  uint64_t NumNodes = 0;
  uint64_t RegionBytes = 0;
  uint64_t HotNodes = 0;
  size_t NodesPerBlock = 0;
};

/// 64-byte classic B-tree node (Bayer/Comer: keys with associated
/// values at every node): 4 keys + 4 values + 5 child offsets.
struct CompactBTreeNode {
  uint16_t Count;
  uint16_t Leaf;
  uint32_t Keys[4];
  uint32_t Values[4];
  uint32_t Kids[5];
  uint32_t Pad[2];
};
static_assert(sizeof(CompactBTreeNode) == 64,
              "compact B-tree node must fill one 64-byte block");

/// Bulk-loaded in-core B-tree with 32-bit child offsets, BFS layout,
/// colored — the Figure 5 baseline in the paper's regime. Its loader
/// is BTree's (bulkLoadBTree).
class CompactBTree {
public:
  static CompactBTree buildFromSorted(const std::vector<uint32_t> &Keys,
                                      const CacheParams &Params,
                                      double FillFactor);

  CompactBTree(CompactBTree &&) = default;
  CompactBTree &operator=(CompactBTree &&) = default;

  template <typename Access> bool contains(uint32_t Key, Access &A) const {
    uint32_t Offset = RootOffset;
    while (Offset != CompactNull) {
      const auto *N = node(Offset);
      uint16_t Count = A.load(&N->Count);
      uint16_t Leaf = A.load(&N->Leaf);
      A.tick(1);
      unsigned I = 0;
      while (I < Count) {
        uint32_t NodeKey = A.load(&N->Keys[I]);
        A.tick(2);
        if (Key == NodeKey) {
          A.touch(&N->Values[I], sizeof(uint32_t));
          return true;
        }
        if (Key < NodeKey)
          break;
        ++I;
      }
      if (Leaf)
        return false;
      Offset = A.load(&N->Kids[I]);
    }
    return false;
  }

  const CompactBTreeNode *node(uint32_t Offset) const {
    return reinterpret_cast<const CompactBTreeNode *>(Base.get() + Offset);
  }

  uint64_t nodeCount() const { return NumNodes; }
  unsigned height() const { return Height; }

private:
  CompactBTree() = default;

  AlignedBuffer Base;
  uint32_t RootOffset = CompactNull;
  uint64_t NumNodes = 0;
  unsigned Height = 0;
};

} // namespace ccl::trees

#endif // CCL_TREES_COMPACTTREE_H
