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
///     void setParent(Quadtree *N, Quadtree *P) const { N->Parent = P; }
///   };
///
///   CcMorph<Quadtree, QuadAdapter> Morph(CacheParams::fromHierarchy(C));
///   Root = Morph.reorganize(Root);
/// \endcode
///
/// An adapter with HasParent set defines setParent, and ccmorph rewrites
/// every copied node's parent pointer through it; the others define none.
///
/// Requirements (paper §3.1.1): homogeneous elements, no external
/// pointers into the middle of the structure, and the programmer
/// guarantees the move is safe. Lists are unary trees; chained hash
/// tables are forests (use reorganizeForest).
///
/// Hot-path layout: a reorganization is one structure traversal (the
/// shared ClusterOrder planner), one placement pass through the colored
/// arena (OffsetLayout's offsets on live frames), one copy pass, and one
/// linear fixup sweep. The planner reports every node's parent position
/// and kid slot, and each node's placement index is its position, so
/// forwarding is a flat walk indexed into the new-node array — the
/// fixup performs no address lookups at all (the old->new hash map
/// survives only as a debug-build DAG check). The scratch buffers keep
/// their capacity across calls, and the arena is double-buffered: a
/// pass lays out into the frames the pass before it retired, so the
/// paper's "periodically invoked" usage draws no memory once two passes
/// have run. The source structure is never written (concurrent morphs
/// may share one source).
///
//===----------------------------------------------------------------------===//

#ifndef CCL_CORE_CCMORPH_H
#define CCL_CORE_CCMORPH_H

#include "core/ClusterOrder.h"
#include "core/ColoredArena.h"
#include "support/FlatMap.h"
#include "support/Metrics.h"
#include "support/Random.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

namespace ccl {

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
};

/// Statistics from the last reorganization.
struct MorphStats {
  uint64_t NodeCount = 0;
  uint64_t ClusterCount = 0;
  uint64_t HotNodes = 0;
  uint64_t ColdNodes = 0;
  size_t NodesPerBlock = 0;
  uint64_t ArenaFrames = 0;
  /// Frames drawn fresh: those past the retired arena's frames.
  uint64_t FramesDrawn = 0;
  /// Retired frames the layout did not reach, freed after placement.
  uint64_t FramesFreed = 0;
  /// Largest BFS frontier the clustering traversal held (subtree,
  /// breadth-first and random schemes; 0 for depth-first).
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
/// again re-copies the (possibly mutated) structure into another colored
/// arena and retires the previous one — the paper's "periodically
/// invoked" usage for slowly changing structures. The structure a pass
/// replaces dies with the pass: the next pass lays out into its frames.
/// The frames of the current structure, which a re-morph reads, are
/// never written, so at most two arenas' frames are held at once.
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
    planForest(Roots, Options, Counts);
    copyNodes();
    forwardEdges();
    return finishForest(Roots);
  }

  const MorphStats &stats() const { return Stats; }
  /// The arena holding the current structure; null before the first pass.
  const ColoredArena *arena() const { return Current.get(); }
  const CacheParams &params() const { return Params; }

private:
  using Planner = ClusterOrder<Node *>;
  static constexpr uint32_t NoParent = Planner::NoParent;
  /// How far ahead the copy pass pulls scattered source nodes.
  static constexpr size_t CopyPrefetchDist = 8;

  /// The address plan: one traversal (the shared planner), the hot/cold
  /// decision, and per-cluster placement into the retired arena. After
  /// it returns, NewNodes[I] is the destination address of the
  /// planner's item I — every byte of the final layout is determined,
  /// but nothing has been copied yet. The fixup needs exactly this: a
  /// kid may be placed after its parent, so forwarding can start only
  /// once every destination is known.
  void planForest(const std::vector<Node *> &Roots,
                  const MorphOptions &Options, const Profile *Counts) {
    Stats = MorphStats();
    Stats.NodesPerBlock = Options.NodesPerBlock
                              ? Options.NodesPerBlock
                              : std::max<size_t>(
                                    1, Params.BlockBytes / sizeof(Node));

    // Lay out into the frames the previous pass retired, frame i into
    // retired frame i. Never into Current: re-morphing a morphed
    // structure reads its source from there until the copy completes.
    CacheParams ArenaParams = Params;
    if (!Options.Color)
      ArenaParams.HotSets = 0; // Cold region spans whole frames: plain
                               // contiguous placement, no gaps.
    uint64_t Held = Retired ? Retired->framesAllocated() : 0;
    if (Retired)
      Retired->restart(ArenaParams);
    else
      Retired = std::make_unique<ColoredArena>(ArenaParams);
    ColoredArena &Fresh = *Retired;

    LiveRoots.clear();
    for (Node *Root : Roots)
      if (Root)
        LiveRoots.push_back(Root);
    bool Random = Options.Scheme == LayoutScheme::Random;
    Order.plan(LiveRoots, Random ? LayoutScheme::Bfs : Options.Scheme,
               Stats.NodesPerBlock, [this](Node *N, auto &&Visit) {
                 for (unsigned I = 0; I < Adapter::MaxKids; ++I)
                   if (Node *Kid = A.getKid(N, I))
                     Visit(I, Kid);
               });
    const auto &Items = Order.items();
    size_t NumClusters = Order.clusters();
    Stats.NodeCount = Items.size();
    Stats.ClusterCount = NumClusters;
    Stats.FrontierPeak = Order.frontierPeak();

    // The random scheme shuffles the breadth-first order: layout slot S
    // holds item Shuffle[S]. Permuting the slots rather than the items
    // leaves every parent position and the root order as planned.
    if (Random) {
      Shuffle.resize(Items.size());
      std::iota(Shuffle.begin(), Shuffle.end(), 0u);
      Xoshiro256 Rng(Options.Seed);
      Rng.shuffle(Shuffle);
    }
    auto ItemAt = [&](size_t Slot) {
      return Random ? size_t(Shuffle[Slot]) : Slot;
    };

    // Decide which clusters are hot. Default: the arena's budget rule,
    // in discovery order (nearest the roots first). Profiled: rank
    // clusters by measured accesses per byte and grant the budget to
    // the heaviest ones.
    bool Profiled = Counts && Options.Color;
    std::vector<bool> HotFlag;
    if (Profiled) {
      HotFlag.assign(NumClusters, false);
      std::vector<std::pair<double, size_t>> Ranked;
      Ranked.reserve(NumClusters);
      for (size_t C = 0; C < NumClusters; ++C) {
        uint64_t Weight = 0;
        for (size_t S = Order.clusterBegin(C); S < Order.clusterEnd(C); ++S)
          if (const uint64_t *Count = Counts->find(Items[ItemAt(S)].Node))
            Weight += *Count;
        size_t Size = Order.clusterEnd(C) - Order.clusterBegin(C);
        Ranked.push_back({double(Weight) / double(Size), C});
      }
      std::sort(Ranked.begin(), Ranked.end(),
                [](const auto &A, const auto &B) {
                  return A.first > B.first ||
                         (A.first == B.first && A.second < B.second);
                });
      uint64_t Budget = Params.hotCapacityBytes();
      for (const auto &[Weight, Index] : Ranked) {
        uint64_t Footprint = alignUp(
            (Order.clusterEnd(Index) - Order.clusterBegin(Index)) *
                sizeof(Node),
            Params.BlockBytes);
        if (Weight <= 0.0 || Budget < Footprint)
          continue;
        Budget -= Footprint;
        HotFlag[Index] = true;
      }
    }

    // Placement: assign each cluster its arena address and record the
    // destination of every node. NewNodes[I] is where item I will be
    // copied, so the planned parent positions forward by index. The DAG
    // check rides along: a node reachable twice would get two
    // destinations.
#ifndef NDEBUG
    Remap.clear();
    Remap.reserve(Stats.NodeCount);
#endif
    NewNodes.resize(Items.size());
    for (size_t C = 0; C < NumClusters; ++C) {
      size_t Begin = Order.clusterBegin(C);
      size_t Size = Order.clusterEnd(C) - Begin;
      size_t Bytes = Size * sizeof(Node);
      // Clusters are packed: small clusters share a block, but no
      // cluster ever straddles a block boundary.
      bool Hot = Profiled && HotFlag[C];
      char *Memory = static_cast<char *>(
          Profiled ? Fresh.allocateIn(Bytes, Hot)
                   : Fresh.allocate(Bytes, Hot));
      // Offsets are sums of whole nodes from block-aligned starts.
      assert(isAligned(addrOf(Memory), alignof(Node)));
      (Hot ? Stats.HotNodes : Stats.ColdNodes) += Size;
      for (size_t I = 0; I < Size; ++I) {
        size_t At = ItemAt(Begin + I);
        Node *NewNode = reinterpret_cast<Node *>(Memory + I * sizeof(Node));
#ifndef NDEBUG
        bool Inserted =
            Remap.tryInsert(reinterpret_cast<uint64_t>(Items[At].Node),
                            reinterpret_cast<uint64_t>(NewNode));
        assert(Inserted && "node reachable twice: ccmorph requires a tree, "
                           "not a DAG (paper §3.1.1)");
        (void)Inserted;
#endif
        NewNodes[At] = NewNode;
      }
    }
    Stats.ArenaFrames = Fresh.framesAllocated();
    Stats.FramesDrawn = Stats.ArenaFrames - std::min(Stats.ArenaFrames, Held);
    Stats.FramesFreed = Held - std::min(Stats.ArenaFrames, Held);
    Fresh.releaseUnplaced();
  }

  /// Copy phase: pure memcpy of every planned node into its
  /// already-assigned destination.
  void copyNodes() {
    const auto &Items = Order.items();
    size_t Count = Items.size();
    for (size_t At = 0; At < Count; ++At) {
      // The sources are scattered (that is why ccmorph exists); pull
      // them in ahead of the copy.
      if (At + CopyPrefetchDist < Count)
        __builtin_prefetch(Items[At + CopyPrefetchDist].Node);
      std::memcpy(static_cast<void *>(NewNodes[At]),
                  static_cast<const void *>(Items[At].Node), sizeof(Node));
    }
  }

  /// Fixup sweep over the planned items: rewrite child (and HasParent
  /// parent) pointers. Every item names its parent's position, so the
  /// sweep is one linear walk over a flat array — no per-edge address
  /// lookup. Null kid slots keep the null copied from the source. The
  /// forest roots, which have no parent, are collected in order.
  void forwardEdges() {
    const auto &Items = Order.items();
    RootPositions.clear();
    for (size_t At = 0; At < Items.size(); ++At) {
      const typename Planner::Item &It = Items[At];
      if (It.Parent == NoParent) {
        RootPositions.push_back(static_cast<uint32_t>(At));
        continue;
      }
      Node *Parent = NewNodes[It.Parent];
      Node *Kid = NewNodes[At];
      A.setKid(Parent, It.Slot, Kid);
      if constexpr (Adapter::HasParent)
        A.setParent(Kid, Parent);
    }
  }

  /// Publishes the completed pass: new roots, arena swap, metrics.
  std::vector<Node *> finishForest(const std::vector<Node *> &Roots) {
    std::vector<Node *> NewRoots;
    NewRoots.reserve(Roots.size());
    size_t RootCursor = 0;
    for (Node *Root : Roots)
      NewRoots.push_back(Root ? NewNodes[RootPositions[RootCursor++]]
                              : nullptr);

    Current.swap(Retired);

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
  /// The double buffer: Current holds the structure, Retired the frames
  /// of the one before it, which the next pass lays out into.
  std::unique_ptr<ColoredArena> Current;
  std::unique_ptr<ColoredArena> Retired;
  MorphStats Stats;
  /// Scratch state reused across reorganizations (capacity persists).
  Planner Order;                       ///< All nodes, cluster by cluster.
  std::vector<Node *> LiveRoots;       ///< The forest's non-null roots.
  std::vector<uint32_t> Shuffle;       ///< Random-scheme layout slots.
  std::vector<Node *> NewNodes;        ///< Destination of each item.
  std::vector<uint32_t> RootPositions; ///< Forest roots' item positions.
#ifndef NDEBUG
  FlatMap64 Remap; ///< Debug-build DAG check (old -> new address).
#endif
};

} // namespace ccl

#endif // CCL_CORE_CCMORPH_H
