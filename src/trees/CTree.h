//===- trees/CTree.h - Transparent cache-conscious tree --------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "transparent C-tree" (§4.2): an ordinary pointer-based
/// binary search tree whose layout has been reorganized by ccmorph —
/// subtrees clustered into L2 cache blocks, and the top of the tree
/// colored into a conflict-free region of the cache. Search code is
/// *identical* to the plain BST; only the placement differs.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_TREES_CTREE_H
#define CCL_TREES_CTREE_H

#include "trees/BinaryTree.h"

namespace ccl::trees {

/// A BST reorganized by ccmorph. Owns the reorganized node storage.
class CTree {
public:
  /// \param Params the target cache (normally L2) with its hot-set count.
  explicit CTree(const CacheParams &Params) : Morph(Params) {}

  /// Copies and reorganizes the tree rooted at \p Root. The source tree
  /// is left untouched (and may be discarded by the caller); it may be
  /// this C-tree's own root. Nodes of earlier adoptions are dead: from
  /// the third adoption on, the copy reuses the frames of the adoption
  /// two back, so a periodically re-adopted C-tree draws no memory.
  /// \returns the new root.
  const BstNode *adopt(BstNode *Root,
                       const MorphOptions &Options = MorphOptions()) {
    Root = Morph.reorganize(Root, Options);
    CurrentRoot = Root;
    return Root;
  }

  const BstNode *root() const { return CurrentRoot; }

  template <typename Access>
  const BstNode *search(uint32_t Key, Access &A) const {
    return bstSearch(CurrentRoot, Key, A);
  }

  const MorphStats &morphStats() const { return Morph.stats(); }
  const ColoredArena *arena() const { return Morph.arena(); }

private:
  CcMorph<BstNode, BstAdapter> Morph;
  const BstNode *CurrentRoot = nullptr;
};

} // namespace ccl::trees

#endif // CCL_TREES_CTREE_H
