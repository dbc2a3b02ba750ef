//===- olden/Health.cpp - Olden health benchmark ----------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "olden/Health.h"

#include "support/Timer.h"

#include <vector>

using namespace ccl;
using namespace ccl::olden;

namespace {

struct Patient {
  uint32_t Id;
  uint32_t Hops;        // Hospitals visited (referrals up).
  uint32_t ArrivalStep; // Step the patient entered the system.
  uint32_t TimeLeft;    // Remaining time in the current phase.
};

/// The paper's Figure 4 `struct List`.
struct ListCell {
  ListCell *Forward;
  ListCell *Back;
  Patient *Pat;
};

struct PList {
  ListCell *First = nullptr;
  ListCell *Last = nullptr;
};

struct Village {
  Village *Kids[4];
  Village *Parent;
  PList Waiting;
  PList Assess;
  PList Inside;
  Patient *LastPatient; ///< ccmalloc hint: chain patient records.
  uint32_t Seed;
  uint32_t FreePersonnel;
  uint32_t Id;
  uint32_t IsLeaf;
};

/// ccmorph adapter: a doubly-linked list is a unary tree through Forward
/// with Back as the parent pointer.
struct CellAdapter {
  static constexpr unsigned MaxKids = 1;
  static constexpr bool HasParent = true;
  ListCell *getKid(ListCell *N, unsigned) const { return N->Forward; }
  void setKid(ListCell *N, unsigned, ListCell *Kid) const {
    N->Forward = Kid;
  }
  void setParent(ListCell *N, ListCell *P) const { N->Back = P; }
};

template <typename Access> class HealthSim {
public:
  HealthSim(const HealthConfig &Config, Variant V,
            const sim::HierarchyConfig *Sim, Access &A)
      : Config(Config), V(V), A(A), Alloc(paramsFor(Sim), strategyFor(V)),
        Morph(paramsFor(Sim)), Greedy(V == Variant::SwPrefetch) {}

  BenchResult run() {
    Root = buildVillage(Config.MaxLevel, nullptr);
    for (CurrentStep = 1; CurrentStep <= Config.Steps; ++CurrentStep) {
      stepVillage(Root);
      if (usesCcMorph(V) && CurrentStep % Config.MorphInterval == 0)
        morphAllLists();
    }
    BenchResult Result;
    Result.Checksum = uint64_t(Completed) * 1000003ULL +
                      uint64_t(TotalTime) * 7ULL + TotalHops;
    Result.HeapFootprintBytes = Alloc.footprintBytes() + MorphArenaBytes;
    Result.Heap = Alloc.stats();
    return Result;
  }

private:
  uint32_t villageRand(Village *Vil) {
    // Per-village LCG: deterministic and placement-independent.
    Vil->Seed = Vil->Seed * 1664525u + 1013904223u;
    return Vil->Seed >> 16;
  }

  Village *buildVillage(unsigned Level, Village *Parent) {
    auto *Vil = static_cast<Village *>(
        benchAlloc(Alloc, V, sizeof(Village), Parent, A));
    Vil->Parent = Parent;
    Vil->LastPatient = nullptr;
    Vil->Waiting = PList();
    Vil->Assess = PList();
    Vil->Inside = PList();
    Vil->Id = NextVillageId++;
    Vil->Seed = static_cast<uint32_t>(Config.Seed) + Vil->Id * 2654435761u;
    Vil->FreePersonnel = 1u << Level;
    Vil->IsLeaf = Level == 0;
    for (auto &Kid : Vil->Kids)
      Kid = nullptr;
    if (Level > 0)
      for (unsigned I = 0; I < 4; ++I)
        Vil->Kids[I] = buildVillage(Level - 1, Vil);
    A.touch(Vil, sizeof(Village));
    Villages.push_back(Vil);
    return Vil;
  }

  /// Appends a new cell for \p P; the ccmalloc hint is the previous last
  /// cell (exactly Figure 4), or the owning village for an empty list.
  void append(PList &L, Patient *P, const void *Owner) {
    ListCell *Prev = A.load(&L.Last);
    const void *Near = Prev ? static_cast<const void *>(Prev) : Owner;
    auto *Cell = static_cast<ListCell *>(
        benchAlloc(Alloc, V, sizeof(ListCell), Near, A));
    A.store(&Cell->Forward, static_cast<ListCell *>(nullptr));
    A.store(&Cell->Back, Prev);
    A.store(&Cell->Pat, P);
    if (Prev)
      A.store(&Prev->Forward, Cell);
    else
      A.store(&L.First, Cell);
    A.store(&L.Last, Cell);
  }

  void unlink(PList &L, ListCell *Cell) {
    ListCell *Fwd = A.load(&Cell->Forward);
    ListCell *Bck = A.load(&Cell->Back);
    if (Bck)
      A.store(&Bck->Forward, Fwd);
    else
      A.store(&L.First, Fwd);
    if (Fwd)
      A.store(&Fwd->Back, Bck);
    else
      A.store(&L.Last, Bck);
    freeCell(Cell);
  }

  void freeCell(ListCell *Cell) {
    // Cells moved into a ccmorph arena are owned by the arena and are
    // reclaimed wholesale on the next reorganization.
    if (!Alloc.heap().owns(Cell))
      return;
    A.tick(PlainAllocTicks);
    Alloc.ccfree(Cell);
  }

  void freePatient(Patient *P) {
    if (!Alloc.heap().owns(P))
      return;
    A.tick(PlainAllocTicks);
    Alloc.ccfree(P);
  }

  void stepVillage(Village *Vil) {
    for (Village *Kid : Vil->Kids)
      if (Kid)
        stepVillage(Kid);

    checkInside(Vil);
    checkAssess(Vil);
    checkWaiting(Vil);

    if (Vil->IsLeaf && villageRand(Vil) % 3 == 0) {
      // Patient records chain near the previous patient of the same
      // village (they are processed in adjacent list positions), keeping
      // them out of the cell stream so cells pack densely per block.
      const void *Near = Vil->LastPatient
                             ? static_cast<const void *>(Vil->LastPatient)
                             : static_cast<const void *>(Vil);
      auto *P = static_cast<Patient *>(
          benchAlloc(Alloc, V, sizeof(Patient), Near, A));
      Vil->LastPatient = P;
      A.store(&P->Id, NextPatientId++);
      A.store(&P->Hops, 0u);
      A.store(&P->ArrivalStep, CurrentStep);
      A.store(&P->TimeLeft, 0u);
      append(Vil->Waiting, P, Vil);
    }
  }

  void checkInside(Village *Vil) {
    ListCell *Cell = A.load(&Vil->Inside.First);
    while (Cell) {
      ListCell *Next = A.load(&Cell->Forward);
      if (Greedy && Next)
        A.prefetch(Next);
      Patient *P = A.load(&Cell->Pat);
      uint32_t TimeLeft = A.load(&P->TimeLeft);
      A.tick(3);
      if (--TimeLeft == 0) {
        unlink(Vil->Inside, Cell);
        Vil->FreePersonnel++;
        ++Completed;
        TotalTime += CurrentStep - A.load(&P->ArrivalStep);
        TotalHops += A.load(&P->Hops);
        freePatient(P);
      } else {
        A.store(&P->TimeLeft, TimeLeft);
      }
      Cell = Next;
    }
  }

  void checkAssess(Village *Vil) {
    ListCell *Cell = A.load(&Vil->Assess.First);
    while (Cell) {
      ListCell *Next = A.load(&Cell->Forward);
      if (Greedy && Next)
        A.prefetch(Next);
      Patient *P = A.load(&Cell->Pat);
      uint32_t TimeLeft = A.load(&P->TimeLeft);
      A.tick(3);
      if (--TimeLeft == 0) {
        unlink(Vil->Assess, Cell);
        bool ReferUp = Vil->Parent && villageRand(Vil) % 10 == 0;
        if (ReferUp) {
          Vil->FreePersonnel++;
          A.store(&P->Hops, A.load(&P->Hops) + 1);
          append(Vil->Parent->Waiting, P, Vil->Parent);
        } else {
          A.store(&P->TimeLeft, 10u);
          append(Vil->Inside, P, Vil);
        }
      } else {
        A.store(&P->TimeLeft, TimeLeft);
      }
      Cell = Next;
    }
  }

  /// Olden's check_patients_waiting walks the *entire* waiting list
  /// every time step, admitting patients while staff is free — the
  /// dominant pointer-path traversal of this benchmark. Patients left
  /// waiting are not touched (their time in system is derived from the
  /// arrival step), so the walk is pure list-cell pointer chasing.
  void checkWaiting(Village *Vil) {
    ListCell *Cell = A.load(&Vil->Waiting.First);
    while (Cell) {
      ListCell *Next = A.load(&Cell->Forward);
      if (Greedy && Next)
        A.prefetch(Next);
      A.tick(2);
      if (Vil->FreePersonnel > 0) {
        Patient *P = A.load(&Cell->Pat);
        Vil->FreePersonnel--;
        A.store(&P->TimeLeft, 3u);
        A.tick(2);
        unlink(Vil->Waiting, Cell);
        append(Vil->Assess, P, Vil);
      }
      Cell = Next;
    }
  }

  /// The paper's periodic list reorganization: every patient list in the
  /// system is copied into ccmorph's other colored arena, clustered K
  /// cells per cache block.
  void morphAllLists() {
    std::vector<PList *> Lists;
    std::vector<ListCell *> Roots;
    std::vector<ListCell *> OldCells;
    for (Village *Vil : Villages)
      for (PList *L : {&Vil->Waiting, &Vil->Assess, &Vil->Inside}) {
        if (!L->First)
          continue;
        Lists.push_back(L);
        Roots.push_back(L->First);
        for (ListCell *C = L->First; C; C = C->Forward)
          OldCells.push_back(C);
      }
    if (Roots.empty())
      return;

    std::vector<ListCell *> NewRoots =
        Morph.reorganizeForest(Roots, morphOptionsFor(V));
    A.tick(Morph.stats().NodeCount * MorphPerNodeTicks);

    for (size_t I = 0; I < Lists.size(); ++I) {
      Lists[I]->First = NewRoots[I];
      ListCell *Last = NewRoots[I];
      while (ListCell *Next = Last->Forward)
        Last = Next;
      Lists[I]->Last = Last;
    }
    // Old heap-owned cells were copied; return them to the heap. (Cells
    // in the previous morph's frames are dead: the next morph reuses them.)
    for (ListCell *C : OldCells)
      freeCell(C);
    MorphArenaBytes = Morph.stats().NodeCount * sizeof(ListCell);
  }

  const HealthConfig &Config;
  Variant V;
  Access &A;
  CcAllocator Alloc;
  CcMorph<ListCell, CellAdapter> Morph;
  bool Greedy;
  Village *Root = nullptr;
  std::vector<Village *> Villages;
  uint32_t NextVillageId = 0;
  uint32_t NextPatientId = 0;
  uint32_t CurrentStep = 0;

  uint64_t Completed = 0;
  uint64_t TotalTime = 0;
  uint64_t TotalHops = 0;
  uint64_t MorphArenaBytes = 0;
};

} // namespace

BenchResult ccl::olden::runHealth(const HealthConfig &Config, Variant V,
                                  const sim::HierarchyConfig *Sim) {
  if (Sim) {
    sim::MemoryHierarchy Hierarchy(hierarchyFor(*Sim, V));
    sim::SimAccess A(Hierarchy);
    BenchResult Result = HealthSim<sim::SimAccess>(Config, V, Sim, A).run();
    Result.Stats = Hierarchy.stats();
    return Result;
  }
  sim::NativeAccess A;
  Timer T;
  BenchResult Result = HealthSim<sim::NativeAccess>(Config, V, Sim, A).run();
  Result.NativeSeconds = T.elapsedSec();
  return Result;
}
