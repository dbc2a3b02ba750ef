//===- olden/Mst.cpp - Olden mst benchmark -----------------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "olden/Mst.h"

#include "support/Align.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <limits>
#include <vector>

using namespace ccl;
using namespace ccl::olden;

namespace {

struct HashEntry {
  uint32_t Key;
  uint32_t Weight;
  HashEntry *Next;
};

struct Vertex {
  HashEntry **Buckets;
  uint32_t NumBuckets; // Power of two.
  uint32_t MinDist;
};

struct EntryAdapter {
  static constexpr unsigned MaxKids = 1;
  static constexpr bool HasParent = false;
  HashEntry *getKid(HashEntry *N, unsigned) const { return N->Next; }
  void setKid(HashEntry *N, unsigned, HashEntry *Kid) const {
    N->Next = Kid;
  }
};

constexpr uint32_t Infinity = std::numeric_limits<uint32_t>::max();

uint32_t edgeWeight(unsigned I, unsigned J, uint64_t Seed) {
  if (I > J)
    std::swap(I, J);
  SplitMix64 Mixer(Seed ^ (uint64_t(I) << 32 | J));
  return static_cast<uint32_t>(Mixer.next() % 1000) + 1;
}

uint32_t bucketIndex(uint32_t Key, uint32_t NumBuckets) {
  return (Key * 2654435761u) & (NumBuckets - 1);
}

template <typename Access> class MstRun {
public:
  MstRun(const MstConfig &Config, Variant V, const sim::HierarchyConfig *Sim,
         Access &A)
      : Config(Config), V(V), A(A), Alloc(paramsFor(Sim), strategyFor(V)),
        Morph(paramsFor(Sim)), Greedy(V == Variant::SwPrefetch) {}

  BenchResult run() {
    buildGraph();
    if (usesCcMorph(V))
      morphChains();
    uint64_t Total = computeMst();

    BenchResult Result;
    Result.Checksum = Total;
    Result.HeapFootprintBytes = Alloc.footprintBytes() + MorphArenaBytes;
    Result.Heap = Alloc.stats();
    return Result;
  }

private:
  void buildGraph() {
    Vertices.reserve(Config.NumVertices);
    const void *PrevVertex = nullptr;
    // Few buckets per vertex so chains hold several entries (the
    // structure whose layout is under study); Olden's tables are small.
    uint32_t NumBuckets = static_cast<uint32_t>(
        nextPowerOf2(std::max(2u, Config.Degree / 4)));
    for (unsigned I = 0; I < Config.NumVertices; ++I) {
      auto *Vtx = static_cast<Vertex *>(
          benchAlloc(Alloc, V, sizeof(Vertex), PrevVertex, A));
      auto *Buckets = static_cast<HashEntry **>(benchAlloc(
          Alloc, V, NumBuckets * sizeof(HashEntry *), Vtx, A));
      for (uint32_t B = 0; B < NumBuckets; ++B)
        A.store(&Buckets[B], static_cast<HashEntry *>(nullptr));
      A.store(&Vtx->Buckets, Buckets);
      A.store(&Vtx->NumBuckets, NumBuckets);
      A.store(&Vtx->MinDist, Infinity);
      Vertices.push_back(Vtx);
      PrevVertex = Vtx;
    }
    // Ring + chords: vertex I is adjacent to I +/- d for d in [1, D/2].
    unsigned Half = std::max(1u, Config.Degree / 2);
    for (unsigned I = 0; I < Config.NumVertices; ++I)
      for (unsigned D = 1; D <= Half; ++D) {
        unsigned J = (I + D) % Config.NumVertices;
        uint32_t W = edgeWeight(I, J, Config.Seed);
        hashInsert(Vertices[I], J, W);
        hashInsert(Vertices[J], I, W);
      }
  }

  void hashInsert(Vertex *Vtx, uint32_t Key, uint32_t Weight) {
    HashEntry **Buckets = A.load(&Vtx->Buckets);
    uint32_t Idx = bucketIndex(Key, A.load(&Vtx->NumBuckets));
    A.tick(3);
    HashEntry *Head = A.load(&Buckets[Idx]);
    // ccmalloc hint: the chain head if the chain is nonempty, else the
    // bucket array itself.
    const void *Near = Head ? static_cast<const void *>(Head)
                            : static_cast<const void *>(&Buckets[Idx]);
    auto *Entry = static_cast<HashEntry *>(
        benchAlloc(Alloc, V, sizeof(HashEntry), Near, A));
    A.store(&Entry->Key, Key);
    A.store(&Entry->Weight, Weight);
    A.store(&Entry->Next, Head);
    A.store(&Buckets[Idx], Entry);
  }

  /// Chain walk; returns the edge weight or Infinity when absent.
  uint32_t hashLookup(Vertex *Vtx, uint32_t Key) {
    HashEntry **Buckets = A.load(&Vtx->Buckets);
    uint32_t Idx = bucketIndex(Key, A.load(&Vtx->NumBuckets));
    A.tick(3);
    HashEntry *Entry = A.load(&Buckets[Idx]);
    while (Entry) {
      HashEntry *Next = A.load(&Entry->Next);
      if (Greedy && Next)
        A.prefetch(Next);
      uint32_t EntryKey = A.load(&Entry->Key);
      A.tick(2);
      if (EntryKey == Key)
        return A.load(&Entry->Weight);
      Entry = Next;
    }
    return Infinity;
  }

  /// One-shot reorganization of every hash chain (the structure never
  /// changes after start-up).
  void morphChains() {
    std::vector<HashEntry **> Slots;
    std::vector<HashEntry *> Roots;
    for (Vertex *Vtx : Vertices) {
      HashEntry **Buckets = Vtx->Buckets;
      for (uint32_t B = 0; B < Vtx->NumBuckets; ++B)
        if (Buckets[B]) {
          Slots.push_back(&Buckets[B]);
          Roots.push_back(Buckets[B]);
        }
    }
    if (Roots.empty())
      return;
    std::vector<HashEntry *> NewRoots =
        Morph.reorganizeForest(Roots, morphOptionsFor(V));
    A.tick(Morph.stats().NodeCount * MorphPerNodeTicks);
    for (size_t I = 0; I < Slots.size(); ++I)
      *Slots[I] = NewRoots[I];
    MorphArenaBytes = Morph.stats().NodeCount * sizeof(HashEntry);
  }

  /// Prim's algorithm in Olden's BlueRule form: after adding a vertex,
  /// every remaining vertex looks up its distance to the new member in
  /// *its own* hash table and relaxes MinDist.
  uint64_t computeMst() {
    unsigned N = Config.NumVertices;
    std::vector<bool> InTree(N, false);
    InTree[0] = true;
    uint32_t Newest = 0;
    uint64_t Total = 0;

    for (unsigned Added = 1; Added < N; ++Added) {
      uint32_t BestDist = Infinity;
      unsigned BestVertex = 0;
      for (unsigned I = 0; I < N; ++I) {
        if (InTree[I])
          continue;
        Vertex *Vtx = Vertices[I];
        uint32_t ToNewest = hashLookup(Vtx, Newest);
        uint32_t Current = A.load(&Vtx->MinDist);
        A.tick(3);
        if (ToNewest < Current) {
          Current = ToNewest;
          A.store(&Vtx->MinDist, Current);
        }
        if (Current < BestDist) {
          BestDist = Current;
          BestVertex = I;
        }
      }
      assert(BestDist != Infinity && "graph must be connected");
      InTree[BestVertex] = true;
      Newest = BestVertex;
      Total += BestDist;
    }
    return Total;
  }

  const MstConfig &Config;
  Variant V;
  Access &A;
  CcAllocator Alloc;
  CcMorph<HashEntry, EntryAdapter> Morph;
  bool Greedy;
  std::vector<Vertex *> Vertices;
  uint64_t MorphArenaBytes = 0;
};

template <typename Access>
BenchResult runImpl(const MstConfig &Config, Variant V,
                    const sim::HierarchyConfig *Sim, Access &A) {
  MstRun<Access> Run(Config, V, Sim, A);
  return Run.run();
}

} // namespace

BenchResult ccl::olden::runMst(const MstConfig &Config, Variant V,
                               const sim::HierarchyConfig *Sim) {
  if (Sim) {
    sim::MemoryHierarchy Hierarchy(hierarchyFor(*Sim, V));
    sim::SimAccess A(Hierarchy);
    BenchResult Result = runImpl(Config, V, Sim, A);
    Result.Stats = Hierarchy.stats();
    return Result;
  }
  sim::NativeAccess A;
  Timer T;
  BenchResult Result = runImpl(Config, V, Sim, A);
  Result.NativeSeconds = T.elapsedSec();
  return Result;
}
