//===- examples/quickstart.cpp - ccmalloc & ccmorph in five minutes ----------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// The two tools of the paper on a toy linked list and binary tree:
//
//  1. ccmalloc — allocate each list cell near its predecessor (the
//     paper's Figure 4) and check how many neighbors ended up sharing an
//     L2 cache block.
//  2. ccmorph — reorganize a pointer tree into a subtree-clustered,
//     colored layout, and verify the structure is untouched.
//
// Build & run:  ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/CcAllocator.h"
#include "core/CcMorph.h"
#include "sim/AccessPolicy.h"
#include "trees/BinaryTree.h"
#include "trees/CTree.h"

#include <cstdio>

using namespace ccl;

namespace {

struct ListCell {
  ListCell *Forward;
  ListCell *Back;
  int Payload;
};

} // namespace

int main() {
  //===------------------------------------------------------------------===//
  // Part 1: ccmalloc (paper §3.2, Figure 4).
  //===------------------------------------------------------------------===//
  std::printf("== ccmalloc ==\n");

  // Describe the cache we are optimizing for: 1MB L2, 64-byte blocks.
  CacheParams Params;
  Params.CacheSets = 16384;
  Params.BlockBytes = 64;
  Params.HotSets = Params.CacheSets / 2;

  CcAllocator Alloc(Params, heap::CcStrategy::NewBlock);

  // Exactly the paper's addList: each new cell is allocated *near* the
  // previous one, so walking the list stays within few cache blocks.
  ListCell *Head = nullptr;
  ListCell *Prev = nullptr;
  for (int I = 0; I < 64; ++I) {
    auto *Cell =
        static_cast<ListCell *>(Alloc.ccmalloc(sizeof(ListCell), Prev));
    Cell->Forward = nullptr;
    Cell->Back = Prev;
    Cell->Payload = I;
    if (Prev)
      Prev->Forward = Cell;
    else
      Head = Cell;
    Prev = Cell;
  }

  int SameBlock = 0;
  int Links = 0;
  for (ListCell *C = Head; C->Forward; C = C->Forward) {
    SameBlock += Alloc.heap().blockOf(C) == Alloc.heap().blockOf(C->Forward);
    ++Links;
  }
  std::printf("list links sharing an L2 block: %d of %d (%.0f%%)\n",
              SameBlock, Links, 100.0 * SameBlock / Links);
  std::printf("heap: %llu same-block placements out of %llu hinted calls\n",
              (unsigned long long)Alloc.stats().SameBlock,
              (unsigned long long)Alloc.stats().NearCalls);

  //===------------------------------------------------------------------===//
  // Part 2: ccmorph (paper §3.1, Figure 3).
  //===------------------------------------------------------------------===//
  std::printf("\n== ccmorph ==\n");

  // A 100,000-node balanced BST with deliberately random placement.
  const uint64_t N = 100000;
  auto Tree = trees::BinarySearchTree::build(N, LayoutScheme::Random);

  // One call: clustering + coloring. The CcMorph object owns the new
  // layout's memory.
  CcMorph<trees::BstNode, trees::BstAdapter> Morph(Params);
  trees::BstNode *Root = Morph.reorganize(Tree.root());

  std::printf("reorganized %llu nodes into %llu clusters "
              "(%zu nodes per 64B block), %llu hot / %llu cold\n",
              (unsigned long long)Morph.stats().NodeCount,
              (unsigned long long)Morph.stats().ClusterCount,
              Morph.stats().NodesPerBlock,
              (unsigned long long)Morph.stats().HotNodes,
              (unsigned long long)Morph.stats().ColdNodes);
  std::printf("structure preserved: %s\n",
              trees::verifyBst(Root, N) ? "yes" : "NO — bug!");

  // Searches work unchanged — only the placement moved.
  sim::NativeAccess A;
  const trees::BstNode *Hit =
      trees::bstSearch(Root, trees::BinarySearchTree::keyAt(N / 2), A);
  std::printf("search for the median key: %s\n",
              Hit ? "found" : "NOT FOUND — bug!");
  return 0;
}
