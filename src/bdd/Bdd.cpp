//===- bdd/Bdd.cpp - Binary decision diagram package ------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"

#include <cassert>
#include <cmath>
#include <unordered_set>

using namespace ccl;
using namespace ccl::bdd;

BddManager::BddManager(unsigned NumVars, CcAllocator &Alloc,
                       sim::MemoryHierarchy *Hierarchy, bool UseNearHints)
    : NumVars(NumVars), Alloc(Alloc), Hierarchy(Hierarchy),
      UseNearHints(UseNearHints),
      Terminal(static_cast<BddNode *>(Alloc.ccmalloc(2 * sizeof(BddNode)))),
      VarNodes(NumVars, nullptr), NVarNodes(NumVars, nullptr) {
  Terminal[0] = {TerminalVar, 0, nullptr, nullptr};
  Terminal[1] = {TerminalVar, 1, nullptr, nullptr};
}

BddNode *BddManager::var(unsigned Var) {
  assert(Var < NumVars && "variable index out of range");
  if (!VarNodes[Var])
    VarNodes[Var] = findOrAdd(Var, zero(), one());
  return VarNodes[Var];
}

BddNode *BddManager::nvar(unsigned Var) {
  assert(Var < NumVars && "variable index out of range");
  if (!NVarNodes[Var])
    NVarNodes[Var] = findOrAdd(Var, one(), zero());
  return NVarNodes[Var];
}

BddNode *BddManager::findOrAdd(uint32_t Var, BddNode *Low, BddNode *High) {
  if (Low == High)
    return Low; // Reduction rule.

  // Unique-table probe (manager overhead, fixed cost).
  if (Hierarchy)
    Hierarchy->tick(8);
  UniqueKey Key{Var, Low, High};
  auto It = Unique.find(Key);
  if (It != Unique.end())
    return It->second;

  // Not present: allocate. The co-access hint is the low child: ITE
  // recursion and evaluation descend into a node's children immediately
  // after touching it, so parent and child are accessed
  // contemporaneously (§3.2.1).
  const void *Near =
      UseNearHints && !isTerminal(Low) ? static_cast<const void *>(Low)
                                       : nullptr;
  if (Hierarchy)
    Hierarchy->tick(Near ? 55 : 30); // Modeled allocator cost.
  auto *N = static_cast<BddNode *>(
      Near ? Alloc.ccmalloc(sizeof(BddNode), Near)
           : Alloc.ccmalloc(sizeof(BddNode)));
  N->Var = Var;
  N->Value = 0;
  N->Low = Low;
  N->High = High;
  if (Hierarchy)
    Hierarchy->write(addrOf(N), sizeof(BddNode));
  Unique.emplace(Key, N);
  return N;
}

uint32_t BddManager::topVar(const BddNode *F, const BddNode *G,
                            const BddNode *H) {
  uint32_t Top = TerminalVar;
  for (const BddNode *N : {F, G, H}) {
    uint32_t Var = ld(&N->Var);
    if (Var < Top)
      Top = Var;
  }
  assert(Top != TerminalVar && "topVar on all-terminal triple");
  return Top;
}

BddNode *BddManager::cofactor(BddNode *F, uint32_t Var, bool Positive) {
  if (isTerminal(F) || ld(&F->Var) != Var)
    return F;
  return Positive ? ld(&F->High) : ld(&F->Low);
}

BddNode *BddManager::ite(BddNode *F, BddNode *G, BddNode *H) {
  // Terminal rules.
  if (F == one())
    return G;
  if (F == zero())
    return H;
  if (G == H)
    return G;
  if (G == one() && H == zero())
    return F;

  IteKey Key{F, G, H};
  auto It = Computed.find(Key);
  if (It != Computed.end()) {
    if (Hierarchy)
      Hierarchy->tick(6); // Computed-cache probe.
    return It->second;
  }

  uint32_t Top = topVar(F, G, H);
  BddNode *T = ite(cofactor(F, Top, true), cofactor(G, Top, true),
                   cofactor(H, Top, true));
  BddNode *E = ite(cofactor(F, Top, false), cofactor(G, Top, false),
                   cofactor(H, Top, false));
  BddNode *R = T == E ? T : findOrAdd(Top, E, T);
  Computed.emplace(Key, R);
  return R;
}

double BddManager::satCount(BddNode *F) {
  std::unordered_map<const BddNode *, double> Memo;
  // Counts assignments over variables with index >= var(N), treating
  // terminals as level NumVars.
  auto Level = [this](const BddNode *N) {
    return N->Var == TerminalVar ? NumVars : N->Var;
  };
  struct Visitor {
    BddManager &M;
    std::unordered_map<const BddNode *, double> &Memo;
    decltype(Level) &LevelOf;
    double visit(BddNode *N) {
      if (N == M.zero())
        return 0.0;
      if (N == M.one())
        return 1.0;
      auto It = Memo.find(N);
      if (It != Memo.end())
        return It->second;
      BddNode *Low = M.ld(&N->Low);
      BddNode *High = M.ld(&N->High);
      double CL = visit(Low) *
                  std::exp2(double(LevelOf(Low)) - double(LevelOf(N)) - 1);
      double CH = visit(High) *
                  std::exp2(double(LevelOf(High)) - double(LevelOf(N)) - 1);
      double Result = CL + CH;
      Memo.emplace(N, Result);
      return Result;
    }
  };
  Visitor Vis{*this, Memo, Level};
  double Root = Vis.visit(F);
  return Root * std::exp2(double(Level(F)));
}

bool BddManager::eval(BddNode *F, uint64_t Assignment) {
  BddNode *N = F;
  while (!isTerminal(N)) {
    uint32_t Var = ld(&N->Var);
    if (Hierarchy)
      Hierarchy->tick(2);
    bool Bit = (Assignment >> Var) & 1;
    N = Bit ? ld(&N->High) : ld(&N->Low);
  }
  return ld(&N->Value) != 0;
}

uint64_t BddManager::nodeCount(BddNode *F) {
  std::unordered_set<const BddNode *> Seen;
  std::vector<BddNode *> Stack{F};
  while (!Stack.empty()) {
    BddNode *N = Stack.back();
    Stack.pop_back();
    if (isTerminal(N) || !Seen.insert(N).second)
      continue;
    Stack.push_back(N->Low);
    Stack.push_back(N->High);
  }
  return Seen.size();
}
