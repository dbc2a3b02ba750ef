//===- core/CcMorph.h - Transparent tree reorganizer -----------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's `ccmorph` (§3.1.1): a transparent, semantics-preserving
/// reorganizer for tree-like structures. Given a root, a way to traverse
/// the structure, and the cache parameters, it copies the structure into
/// a contiguous area, packing subtrees into cache blocks (clustering,
/// §2.1) and mapping the first `p` sets' worth of elements near the root
/// into a unique, conflict-free region of the cache (coloring, §2.2).
///
/// The paper's `next_node` function (Figure 3) corresponds to an adapter
/// type here:
///
/// \code
///   struct QuadAdapter {
///     static constexpr unsigned MaxKids = 4;
///     static constexpr bool HasParent = true;
///     Quadtree *getKid(Quadtree *N, unsigned I) const { ... }
///     void setKid(Quadtree *N, unsigned I, Quadtree *Kid) const { ... }
///     Quadtree *getParent(Quadtree *N) const { return N->Parent; }
///     void setParent(Quadtree *N, Quadtree *P) const { N->Parent = P; }
///   };
///
///   CcMorph<Quadtree, QuadAdapter> Morph(CacheParams::fromHierarchy(C));
///   Root = Morph.reorganize(Root);
/// \endcode
///
/// Requirements (paper §3.1.1): homogeneous elements, no external
/// pointers into the middle of the structure, and the programmer
/// guarantees the move is safe. Lists are unary trees; chained hash
/// tables are forests (use reorganizeForest).
///
/// Hot-path layout: a reorganization is one structure traversal (cluster
/// formation over flat, index-cursor work queues — no deques), one copy
/// pass, and one linear fixup sweep. The traversal already knows every
/// (parent, slot, child) edge and the placement index each node will
/// get, so forwarding is a flat edge list indexed into the new-node
/// array — the fixup performs no address lookups at all (the old
/// old->new hash map survives only as a debug-build DAG check). The
/// scratch buffers keep their capacity across calls, so the paper's
/// "periodically invoked" usage does not re-pay allocation churn. The
/// source structure is never written (concurrent morphs may share one
/// source).
///
//===----------------------------------------------------------------------===//

#ifndef CCL_CORE_CCMORPH_H
#define CCL_CORE_CCMORPH_H

#include "core/ColoredArena.h"
#include "support/FlatMap.h"
#include "support/Metrics.h"
#include "support/Random.h"

#include <algorithm>
#include <cstring>
#include <memory>
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
  /// "randomly clustered" baseline of Figure 5.
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

/// Options controlling one reorganization.
struct MorphOptions {
  LayoutScheme Scheme = LayoutScheme::Subtree;
  /// Apply coloring: the first clusters (nearest the root) are placed in
  /// the hot region until its conflict-free capacity is exhausted.
  bool Color = true;
  /// Nodes packed per cache block; 0 = BlockBytes / sizeof(Node).
  size_t NodesPerBlock = 0;
  /// Seed for LayoutScheme::Random.
  uint64_t Seed = 0x5eedULL;
  /// Rewrite parent pointers too (requires Adapter::HasParent).
  bool UpdateParents = false;
};

/// Statistics from the last reorganization.
struct MorphStats {
  uint64_t NodeCount = 0;
  uint64_t ClusterCount = 0;
  uint64_t HotNodes = 0;
  uint64_t ColdNodes = 0;
  size_t NodesPerBlock = 0;
  uint64_t ArenaFrames = 0;
  /// Largest BFS frontier the clustering traversal held (subtree and
  /// breadth-first schemes; 0 for depth-first/random).
  uint64_t FrontierPeak = 0;
};

namespace morph_detail {
/// Process-wide morph metrics (support/Metrics.h), registered once.
struct MorphMetrics {
  metrics::Counter Passes = metrics::counter("ccmorph.passes");
  metrics::Counter Nodes = metrics::counter("ccmorph.nodes");
  metrics::Counter Clusters = metrics::counter("ccmorph.clusters");
  metrics::Counter HotNodes = metrics::counter("ccmorph.hot_nodes");
  metrics::Histogram PassNodes = metrics::histogram("ccmorph.pass_nodes");
  metrics::Histogram FrontierPeak =
      metrics::histogram("ccmorph.frontier_peak");
};

inline const MorphMetrics &morphMetrics() {
  static MorphMetrics M;
  return M;
}
} // namespace morph_detail

/// Transparent cache-conscious structure reorganizer.
///
/// The CcMorph object owns the memory of the reorganized structure; keep
/// it alive as long as the structure is in use. Calling reorganize()
/// again re-copies the (possibly mutated) structure into a fresh colored
/// arena and releases the previous one — the paper's "periodically
/// invoked" usage for slowly changing structures.
template <typename Node, typename Adapter> class CcMorph {
  static_assert(std::is_trivially_copyable_v<Node>,
                "ccmorph copies nodes with memcpy; Node must be trivially "
                "copyable (a C-style struct)");

public:
  explicit CcMorph(const CacheParams &Params, Adapter A = Adapter())
      : Params(Params), A(A) {}

  /// Reorganizes the tree rooted at \p Root; returns the new root.
  Node *reorganize(Node *Root, const MorphOptions &Options = MorphOptions()) {
    std::vector<Node *> Roots{Root};
    return reorganizeForest(Roots, Options)[0];
  }

  /// An access profile: per-node touch counts gathered by the program
  /// (the paper's §7 future work — profiling instead of topology).
  /// Open-addressing (support/FlatMap.h), keyed by node address.
  using Profile = PtrCountMap;

  /// Profile-guided reorganization: clusters are still formed from the
  /// structure's topology, but hot-region capacity goes to the clusters
  /// with the highest measured per-byte access counts instead of the
  /// ones nearest the root. With skewed (non-uniform) access patterns
  /// this colors the actually-hot paths.
  Node *reorganizeProfiled(Node *Root, const Profile &Counts,
                           const MorphOptions &Options = MorphOptions()) {
    std::vector<Node *> Roots{Root};
    return reorganizeForest(Roots, Options, &Counts)[0];
  }

  /// Reorganizes a forest (e.g. every chain of a hash table) into one
  /// shared colored arena; returns the new roots in order. Hot-region
  /// capacity is granted to clusters in discovery order across the whole
  /// forest, or by measured heat when \p Counts is supplied.
  std::vector<Node *>
  reorganizeForest(const std::vector<Node *> &Roots,
                   const MorphOptions &Options = MorphOptions(),
                   const Profile *Counts = nullptr) {
    metrics::ScopedSpan PassSpan("ccmorph.pass");
    auto Fresh = planForest(Roots, Options, Counts);
    copyNodes();
    forwardEdges(Options.UpdateParents);
    return finishForest(Roots, std::move(Fresh));
  }

  const MorphStats &stats() const { return Stats; }
  const ColoredArena *arena() const { return Current.get(); }
  const CacheParams &params() const { return Params; }

private:
  /// A pending traversal item: the node plus the placement index of the
  /// parent that queued it (NoParent for forest roots) and the kid slot
  /// it occupies there.
  struct WorkItem {
    Node *N;
    uint32_t ParentIdx;
    uint32_t Slot;
  };
  /// One discovered edge: ClusterNodes[Parent]'s kid \p Slot is
  /// ClusterNodes[Kid]. Indices double as NewNodes indices, which is
  /// what makes the fixup sweep lookup-free.
  struct Edge {
    uint32_t Parent;
    uint32_t Kid;
    uint32_t Slot;
  };
  static constexpr uint32_t NoParent = ~uint32_t(0);
  /// How far ahead the copy pass pulls scattered source nodes.
  static constexpr size_t CopyPrefetchDist = 8;
  /// How many clusters ahead the subtree traversal pulls cluster roots.
  static constexpr size_t RootPrefetchDist = 6;

  /// Groups the forest's nodes into clusters of at most NodesPerBlock,
  /// ordered root-outward so early clusters are the hot ones. Results
  /// land in ClusterNodes/ClusterEnds.
  void formClusters(const std::vector<Node *> &Roots,
                    const MorphOptions &Options) {
    switch (Options.Scheme) {
    case LayoutScheme::Subtree:
      formSubtreeClusters(Roots, Stats.NodesPerBlock);
      break;
    case LayoutScheme::DepthFirst:
      for (Node *Root : Roots)
        depthFirstOrder(Root);
      chunk(Stats.NodesPerBlock);
      break;
    case LayoutScheme::Bfs:
      for (Node *Root : Roots)
        breadthFirstOrder(Root);
      chunk(Stats.NodesPerBlock);
      break;
    case LayoutScheme::Random: {
      for (Node *Root : Roots)
        breadthFirstOrder(Root);
      // Shuffle an index vector, not the nodes: the Fisher-Yates swap
      // sequence depends only on the seed and the length, so the node
      // permutation is identical to shuffling ClusterNodes directly,
      // and the inverse permutation lets the recorded edges and root
      // positions follow their nodes to the shuffled slots.
      size_t N = ClusterNodes.size();
      Xoshiro256 Rng(Options.Seed);
      IndexBuf.resize(N);
      for (size_t I = 0; I < N; ++I)
        IndexBuf[I] = static_cast<uint32_t>(I);
      Rng.shuffle(IndexBuf);
      PermBuf.resize(N);
      InvBuf.resize(N);
      for (size_t I = 0; I < N; ++I) {
        PermBuf[I] = ClusterNodes[IndexBuf[I]];
        InvBuf[IndexBuf[I]] = static_cast<uint32_t>(I);
      }
      ClusterNodes.swap(PermBuf);
      for (Edge &E : Edges) {
        E.Parent = InvBuf[E.Parent];
        E.Kid = InvBuf[E.Kid];
      }
      for (uint32_t &Pos : RootPositions)
        Pos = InvBuf[Pos];
      chunk(Stats.NodesPerBlock);
      break;
    }
    }
  }

  /// Subtree clustering (§2.1, Figure 1): each cluster root absorbs its
  /// subtree in breadth-first order until the cluster holds K nodes; the
  /// children that did not fit become roots of subsequent clusters.
  /// Clusters themselves are discovered breadth-first from the tree root
  /// so hot-region assignment follows root distance. Both work queues
  /// are flat vectors drained by a head cursor (FIFO without deque
  /// segment churn); the scratch buffers persist across reorganizations.
  void formSubtreeClusters(const std::vector<Node *> &Roots, size_t K) {
    ClusterRootsBuf.clear();
    for (Node *Root : Roots)
      if (Root)
        ClusterRootsBuf.push_back({Root, NoParent, 0});

    size_t Head = 0;
    while (Head < ClusterRootsBuf.size()) {
      WorkItem Top = ClusterRootsBuf[Head++];
      // Clusters are small (a block's worth), so the cluster-root queue
      // is the traversal's real FIFO; distance 1 cannot hide a DRAM
      // fetch behind one cluster's work.
      if (Head + RootPrefetchDist < ClusterRootsBuf.size())
        __builtin_prefetch(ClusterRootsBuf[Head + RootPrefetchDist].N);

      // BFS from Top: FrontierBuf[0, Taken) is the cluster, the
      // remainder seeds later clusters.
      FrontierBuf.clear();
      FrontierBuf.push_back(Top);
      size_t Taken = 0;
      while (Taken < FrontierBuf.size() && Taken < K) {
        WorkItem Item = FrontierBuf[Taken++];
        if (Taken + 3 < FrontierBuf.size())
          __builtin_prefetch(FrontierBuf[Taken + 3].N);
        uint32_t At = emit(Item);
        for (unsigned I = 0; I < Adapter::MaxKids; ++I)
          if (Node *Kid = A.getKid(Item.N, I)) {
            // Pull the kid in now: it is visited within this cluster a
            // couple of iterations from here, or shortly after as one
            // of the next cluster roots.
            __builtin_prefetch(Kid);
            FrontierBuf.push_back({Kid, At, I});
          }
      }
      // Whatever is left on the frontier starts new clusters.
      ClusterRootsBuf.insert(ClusterRootsBuf.end(),
                             FrontierBuf.begin() + ptrdiff_t(Taken),
                             FrontierBuf.end());
      ClusterEnds.push_back(ClusterNodes.size());
      Stats.FrontierPeak =
          std::max<uint64_t>(Stats.FrontierPeak, FrontierBuf.size());
    }
  }

  void depthFirstOrder(Node *Root) {
    if (!Root)
      return;
    std::vector<WorkItem> &Stack = FrontierBuf;
    Stack.clear();
    Stack.push_back({Root, NoParent, 0});
    while (!Stack.empty()) {
      WorkItem Item = Stack.back();
      Stack.pop_back();
      uint32_t At = emit(Item);
      // Push kids in reverse so kid 0 is visited first (preorder).
      for (unsigned I = Adapter::MaxKids; I > 0; --I)
        if (Node *Kid = A.getKid(Item.N, I - 1))
          Stack.push_back({Kid, At, I - 1});
    }
  }

  /// BFS over an index-cursor FIFO; emits into ClusterNodes.
  void breadthFirstOrder(Node *Root) {
    if (!Root)
      return;
    FrontierBuf.clear();
    FrontierBuf.push_back({Root, NoParent, 0});
    size_t Head = 0;
    while (Head < FrontierBuf.size()) {
      WorkItem Item = FrontierBuf[Head++];
      if (Head + 3 < FrontierBuf.size())
        __builtin_prefetch(FrontierBuf[Head + 3].N);
      uint32_t At = emit(Item);
      for (unsigned I = 0; I < Adapter::MaxKids; ++I)
        if (Node *Kid = A.getKid(Item.N, I))
          FrontierBuf.push_back({Kid, At, I});
    }
    // Index-cursor FIFO: live frontier is [Head, size), maximal at the
    // end of the walk for a full tree; the buffer size bounds it.
    Stats.FrontierPeak =
        std::max<uint64_t>(Stats.FrontierPeak, FrontierBuf.size());
  }

  /// Appends \p Item's node to ClusterNodes, recording the edge that
  /// led to it (or its position, for forest roots). The returned index
  /// also names the node's slot in NewNodes after the copy pass.
  uint32_t emit(const WorkItem &Item) {
    uint32_t At = static_cast<uint32_t>(ClusterNodes.size());
    ClusterNodes.push_back(Item.N);
    ++Stats.NodeCount;
    if (Item.ParentIdx == NoParent)
      RootPositions.push_back(At);
    else
      Edges.push_back({Item.ParentIdx, At, Item.Slot});
    return At;
  }

  /// Delimits ClusterNodes into consecutive clusters of K.
  void chunk(size_t K) {
    for (size_t End = 0; End < ClusterNodes.size();) {
      End = std::min(End + K, ClusterNodes.size());
      ClusterEnds.push_back(End);
    }
  }

  size_t clusterBegin(size_t I) const {
    return I == 0 ? size_t(0) : ClusterEnds[I - 1];
  }

  /// The address plan: one traversal (cluster formation), the hot/cold
  /// decision, and per-cluster placement into a fresh arena. After it
  /// returns, NewNodes[I] is the destination address of ClusterNodes[I]
  /// — every byte of the final layout is determined, but nothing has
  /// been copied yet. The fixup needs exactly this: an edge's kid may be
  /// placed after its parent, so forwarding can start only once every
  /// destination is known.
  std::unique_ptr<ColoredArena> planForest(const std::vector<Node *> &Roots,
                                           const MorphOptions &Options,
                                           const Profile *Counts) {
    Stats = MorphStats();
    Stats.NodesPerBlock = Options.NodesPerBlock
                              ? Options.NodesPerBlock
                              : std::max<size_t>(
                                    1, Params.BlockBytes / sizeof(Node));

    // A fresh arena each time so re-morphing an already-morphed tree is
    // safe: the old arena is released only after the copy completes.
    CacheParams ArenaParams = Params;
    if (!Options.Color)
      ArenaParams.HotSets = 0; // Cold region spans whole frames: plain
                               // contiguous placement, no gaps.
    auto Fresh = std::make_unique<ColoredArena>(ArenaParams);

    // One traversal: clusters land flat in ClusterNodes, delimited by
    // ClusterEnds (exclusive end offsets), hot-assignment order. The
    // traversal also records every parent/child edge and each forest
    // root's placement index, so no later pass needs to look anything up.
    ClusterNodes.clear();
    ClusterEnds.clear();
    Edges.clear();
    RootPositions.clear();
    formClusters(Roots, Options);
    size_t NumClusters = ClusterEnds.size();
    Stats.ClusterCount = NumClusters;

    // Decide which clusters are hot. Default: discovery order (nearest
    // the roots first). Profiled: rank clusters by measured accesses per
    // byte and grant the budget to the heaviest ones.
    uint64_t HotBudget = Options.Color ? Params.hotCapacityBytes() : 0;
    std::vector<bool> HotFlag(NumClusters, false);
    if (Counts && Options.Color) {
      std::vector<std::pair<double, size_t>> Ranked;
      Ranked.reserve(NumClusters);
      for (size_t I = 0; I < NumClusters; ++I) {
        uint64_t Weight = 0;
        size_t Size = ClusterEnds[I] - clusterBegin(I);
        for (size_t At = clusterBegin(I); At < ClusterEnds[I]; ++At)
          if (const uint64_t *Count = Counts->find(ClusterNodes[At]))
            Weight += *Count;
        Ranked.push_back({double(Weight) / double(Size), I});
      }
      std::sort(Ranked.begin(), Ranked.end(),
                [](const auto &A, const auto &B) {
                  return A.first > B.first ||
                         (A.first == B.first && A.second < B.second);
                });
      uint64_t Budget = HotBudget;
      for (const auto &[Weight, Index] : Ranked) {
        uint64_t Footprint =
            alignUp((ClusterEnds[Index] - clusterBegin(Index)) * sizeof(Node),
                    Params.BlockBytes);
        if (Weight <= 0.0 || Budget < Footprint)
          continue;
        Budget -= Footprint;
        HotFlag[Index] = true;
      }
    }

    // Placement: assign each cluster its arena address and record the
    // destination of every node. NewNodes[I] is where ClusterNodes[I]
    // will be copied, so the traversal's recorded edges forward by
    // index. The DAG check rides along: a node reachable twice would
    // get two destinations.
#ifndef NDEBUG
    Remap.clear();
    Remap.reserve(Stats.NodeCount);
#endif
    NewNodes.clear();
    NewNodes.reserve(ClusterNodes.size());

    for (size_t ClusterIdx = 0; ClusterIdx < NumClusters; ++ClusterIdx) {
      size_t Begin = clusterBegin(ClusterIdx);
      size_t Size = ClusterEnds[ClusterIdx] - Begin;
      size_t Bytes = Size * sizeof(Node);
      // Budget by the block-aligned footprint: a cluster occupies a whole
      // block in the hot region regardless of slack.
      uint64_t Footprint = alignUp(Bytes, Params.BlockBytes);
      bool Hot;
      if (Counts && Options.Color) {
        Hot = HotFlag[ClusterIdx];
      } else {
        Hot = HotBudget >= Footprint;
      }
      char *Memory;
      // Clusters are packed: small clusters share a block, but no
      // cluster ever straddles a block boundary.
      if (Hot) {
        Memory = static_cast<char *>(
            Fresh->allocateHot(Bytes, alignof(Node), Params.BlockBytes));
        HotBudget -= Footprint;
        Stats.HotNodes += Size;
      } else {
        Memory = static_cast<char *>(
            Fresh->allocateCold(Bytes, alignof(Node), Params.BlockBytes));
        Stats.ColdNodes += Size;
      }
      for (size_t I = 0; I < Size; ++I) {
        Node *NewNode = reinterpret_cast<Node *>(Memory + I * sizeof(Node));
#ifndef NDEBUG
        bool Inserted = Remap.tryInsert(
            reinterpret_cast<uint64_t>(ClusterNodes[Begin + I]),
            reinterpret_cast<uint64_t>(NewNode));
        assert(Inserted && "node reachable twice: ccmorph requires a tree, "
                           "not a DAG (paper §3.1.1)");
        (void)Inserted;
#endif
        NewNodes.push_back(NewNode);
      }
    }
    return Fresh;
  }

  /// Copy phase: pure memcpy of every planned node into its
  /// already-assigned destination.
  void copyNodes() {
    size_t Count = NewNodes.size();
    for (size_t At = 0; At < Count; ++At) {
      // The sources are scattered (that is why ccmorph exists); pull
      // them in ahead of the copy.
      if (At + CopyPrefetchDist < Count)
        __builtin_prefetch(ClusterNodes[At + CopyPrefetchDist]);
      std::memcpy(static_cast<void *>(NewNodes[At]),
                  static_cast<const void *>(ClusterNodes[At]), sizeof(Node));
    }
  }

  /// Fixup sweep over the recorded edges: rewrite child (and
  /// optionally parent) pointers. Every edge names the parent's and
  /// child's placement indices, so the sweep is one linear walk over a
  /// flat array — no per-edge address lookup. Null kid slots keep the
  /// null copied from the source.
  void forwardEdges(bool UpdateParents) {
    for (const Edge &E : Edges) {
      Node *Parent = NewNodes[E.Parent];
      Node *Kid = NewNodes[E.Kid];
      A.setKid(Parent, E.Slot, Kid);
      if constexpr (Adapter::HasParent)
        if (UpdateParents)
          A.setParent(Kid, Parent);
    }
    (void)UpdateParents;
  }

  /// Publishes the completed pass: new roots, arena swap, metrics.
  std::vector<Node *> finishForest(const std::vector<Node *> &Roots,
                                   std::unique_ptr<ColoredArena> Fresh) {
    std::vector<Node *> NewRoots;
    NewRoots.reserve(Roots.size());
    size_t RootCursor = 0;
    for (Node *Root : Roots)
      NewRoots.push_back(Root ? NewNodes[RootPositions[RootCursor++]]
                              : nullptr);

    Current = std::move(Fresh);
    Stats.ArenaFrames = Current->framesAllocated();

    const morph_detail::MorphMetrics &MM = morph_detail::morphMetrics();
    metrics::add(MM.Passes);
    metrics::add(MM.Nodes, Stats.NodeCount);
    metrics::add(MM.Clusters, Stats.ClusterCount);
    metrics::add(MM.HotNodes, Stats.HotNodes);
    metrics::record(MM.PassNodes, Stats.NodeCount);
    if (Stats.FrontierPeak)
      metrics::record(MM.FrontierPeak, Stats.FrontierPeak);
    return NewRoots;
  }

  CacheParams Params;
  Adapter A;
  std::unique_ptr<ColoredArena> Current;
  MorphStats Stats;
  /// Scratch state reused across reorganizations (capacity persists).
  std::vector<Node *> ClusterNodes; ///< All nodes, cluster by cluster.
  std::vector<size_t> ClusterEnds;  ///< Exclusive end of each cluster.
  std::vector<WorkItem> ClusterRootsBuf;
  std::vector<WorkItem> FrontierBuf;
  std::vector<Node *> NewNodes;        ///< New nodes in placement order.
  std::vector<Edge> Edges;             ///< All parent/child edges.
  std::vector<uint32_t> RootPositions; ///< Forest roots' indices.
  std::vector<uint32_t> IndexBuf;      ///< Random-scheme permutation.
  std::vector<uint32_t> InvBuf;        ///< ... and its inverse.
  std::vector<Node *> PermBuf;
#ifndef NDEBUG
  FlatMap64 Remap; ///< Debug-build DAG check (old -> new address).
#endif
};

} // namespace ccl

#endif // CCL_CORE_CCMORPH_H
