//===- core/ClusterOrder.h - One cluster-order planner ---------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one layout planner behind every reorganized structure: ccmorph's
/// pointer trees, the 32-bit-offset CompactTree and CompactBTree, and
/// the implicit octree. A tree is seen only through a handle `H` (a node
/// pointer or an array index) and a kid visitor. The planner orders a
/// forest by a LayoutScheme, cuts the order into clusters of at most K
/// nodes (subtree clustering, paper §2.1), and reports every node with
/// its parent's position and its kid slot, so a copying caller forwards
/// child links by index with no address lookups. Placing and coloring
/// the clusters (§2.2) is OffsetLayout's job.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_CORE_CLUSTERORDER_H
#define CCL_CORE_CLUSTERORDER_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace ccl {

/// How nodes are grouped into cache blocks.
enum class LayoutScheme {
  /// Pack subtrees into cache blocks (the paper's technique, §2.1).
  Subtree,
  /// Pack consecutive depth-first (preorder) nodes into blocks — the
  /// comparison layout of §2.1 whose expected block reuse is < 2.
  DepthFirst,
  /// Pack consecutive breadth-first nodes into blocks.
  Bfs,
  /// Pack a random permutation of nodes into blocks (no locality); the
  /// "randomly clustered" baseline of Figure 5. Not a planner order:
  /// each caller shuffles one of the others (see ClusterOrder::plan).
  Random,
};

/// Returns a short human-readable scheme name.
inline const char *layoutSchemeName(LayoutScheme Scheme) {
  switch (Scheme) {
  case LayoutScheme::Subtree:
    return "subtree";
  case LayoutScheme::DepthFirst:
    return "depth-first";
  case LayoutScheme::Bfs:
    return "bfs";
  case LayoutScheme::Random:
    return "random";
  }
  return "unknown";
}

/// Orders a forest of handles into clusters. The scratch buffers keep
/// their capacity across plan() calls, so a periodically re-run planner
/// (ccmorph) does not re-pay allocation.
template <typename H> class ClusterOrder {
public:
  /// One planned node: its handle, the position of its parent in
  /// items() (NoParent for a forest root), and its kid slot there.
  struct Item {
    H Node;
    uint32_t Parent;
    uint32_t Slot;
  };
  static constexpr uint32_t NoParent = ~uint32_t(0);

  /// Orders the forest under \p Roots by \p Scheme and cuts it into
  /// clusters of at most \p K nodes. \p Kids(Node, Visit) must call
  /// Visit(Slot, Kid) for every present kid, in slot order.
  ///
  ///  - Subtree: each cluster root absorbs its subtree breadth-first
  ///    until the cluster holds K nodes; the kids that did not fit root
  ///    later clusters. Clusters are discovered breadth-first from the
  ///    roots, so early clusters are the ones nearest a root.
  ///  - DepthFirst / Bfs: each tree's preorder / breadth-first order,
  ///    tree after tree, cut every K nodes (a cluster may span trees).
  ///
  /// A parent always precedes its kids, and the roots keep their order.
  template <typename KidsFn>
  void plan(std::span<const H> Roots, LayoutScheme Scheme, size_t K,
            KidsFn &&Kids) {
    assert(K > 0 && "clusters need at least one node");
    assert(Scheme != LayoutScheme::Random &&
           "shuffle a DepthFirst or Bfs order instead");
    Items.clear();
    Ends.clear();
    Peak = 0;
    switch (Scheme) {
    case LayoutScheme::Subtree:
      subtreeClusters(Roots, K, Kids);
      return;
    case LayoutScheme::DepthFirst:
      for (H Root : Roots)
        preorder(Root, Kids);
      break;
    case LayoutScheme::Bfs:
    case LayoutScheme::Random:
      for (H Root : Roots)
        breadthFirst(Root, Kids);
      break;
    }
    for (size_t End = 0; End < Items.size();) {
      End = std::min(End + K, Items.size());
      Ends.push_back(static_cast<uint32_t>(End));
    }
  }

  /// Every planned node, cluster by cluster.
  const std::vector<Item> &items() const { return Items; }
  size_t clusters() const { return Ends.size(); }
  /// Cluster \p C is items()[clusterBegin(C), clusterEnd(C)).
  size_t clusterBegin(size_t C) const { return C == 0 ? 0 : Ends[C - 1]; }
  size_t clusterEnd(size_t C) const { return Ends[C]; }
  /// Largest work queue the last Subtree or Bfs plan held (0 after
  /// DepthFirst).
  size_t frontierPeak() const { return Peak; }

private:
  /// How many clusters ahead the subtree traversal pulls cluster roots.
  static constexpr size_t RootPrefetchDist = 6;
  /// How many queued nodes ahead a breadth-first walk pulls.
  static constexpr size_t QueuePrefetchDist = 3;

  /// Pulls a pointer handle's node into the host cache; index handles
  /// name array slots the caller already holds, so there is nothing to
  /// fetch.
  static void prefetch(H Node) {
    if constexpr (std::is_pointer_v<H>)
      __builtin_prefetch(Node);
  }

  uint32_t emit(const Item &It) {
    uint32_t At = static_cast<uint32_t>(Items.size());
    Items.push_back(It);
    return At;
  }

  /// Both work queues are flat vectors drained by a head cursor (FIFO
  /// without deque segment churn).
  template <typename KidsFn>
  void subtreeClusters(std::span<const H> Roots, size_t K, KidsFn &Kids) {
    Queue.clear();
    for (H Root : Roots)
      Queue.push_back({Root, NoParent, 0});
    for (size_t Head = 0; Head < Queue.size();) {
      Item Top = Queue[Head++];
      // Clusters are small (a block's worth), so the cluster-root queue
      // is the traversal's real FIFO; distance 1 cannot hide a DRAM
      // fetch behind one cluster's work.
      if (Head + RootPrefetchDist < Queue.size())
        prefetch(Queue[Head + RootPrefetchDist].Node);
      // Frontier[0, Taken) is the cluster; the rest roots later ones.
      Frontier.clear();
      Frontier.push_back(Top);
      size_t Taken = 0;
      while (Taken < Frontier.size() && Taken < K) {
        Item It = Frontier[Taken++];
        if (Taken + QueuePrefetchDist < Frontier.size())
          prefetch(Frontier[Taken + QueuePrefetchDist].Node);
        uint32_t At = emit(It);
        Kids(It.Node, [&](uint32_t Slot, H Kid) {
          // Visited within this cluster a couple of iterations from
          // here, or shortly after as one of the next cluster roots.
          prefetch(Kid);
          Frontier.push_back({Kid, At, Slot});
        });
      }
      Queue.insert(Queue.end(), Frontier.begin() + ptrdiff_t(Taken),
                   Frontier.end());
      Ends.push_back(static_cast<uint32_t>(Items.size()));
      Peak = std::max(Peak, Frontier.size());
    }
  }

  template <typename KidsFn> void preorder(H Root, KidsFn &Kids) {
    std::vector<Item> &Stack = Frontier;
    Stack.clear();
    Stack.push_back({Root, NoParent, 0});
    while (!Stack.empty()) {
      Item It = Stack.back();
      Stack.pop_back();
      uint32_t At = emit(It);
      size_t Mark = Stack.size();
      Kids(It.Node,
           [&](uint32_t Slot, H Kid) { Stack.push_back({Kid, At, Slot}); });
      // Kid 0 on top, so it is visited first.
      std::reverse(Stack.begin() + ptrdiff_t(Mark), Stack.end());
    }
  }

  /// Breadth-first order is emission order, so items() itself is the
  /// FIFO: the tree's items from \p Root onward are drained by a head
  /// cursor as their kids are appended.
  template <typename KidsFn> void breadthFirst(H Root, KidsFn &Kids) {
    size_t Start = Items.size();
    emit({Root, NoParent, 0});
    for (size_t Head = Start; Head < Items.size(); ++Head) {
      if (Head + QueuePrefetchDist < Items.size())
        prefetch(Items[Head + QueuePrefetchDist].Node);
      uint32_t At = static_cast<uint32_t>(Head);
      Kids(Items[Head].Node,
           [&](uint32_t Slot, H Kid) { emit({Kid, At, Slot}); });
    }
    Peak = std::max(Peak, Items.size() - Start);
  }

  std::vector<Item> Items;
  std::vector<uint32_t> Ends; ///< Exclusive end of each cluster.
  std::vector<Item> Queue;    ///< Subtree: pending cluster roots.
  std::vector<Item> Frontier; ///< Subtree frontier / preorder stack.
  size_t Peak = 0;
};

} // namespace ccl

#endif // CCL_CORE_CLUSTERORDER_H
