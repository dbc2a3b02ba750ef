//===- tests/bdd_test.cpp - BDD package tests ---------------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "bdd/BddWorkloads.h"

#include <gtest/gtest.h>

#include <thread>

using namespace ccl;
using namespace ccl::bdd;

namespace {

struct Managed {
  CcAllocator Alloc;
  BddManager Mgr;
  explicit Managed(unsigned Vars, bool Hints = true)
      : Alloc(), Mgr(Vars, Alloc, nullptr, Hints) {}
};

/// 5-queens plus random evaluations on the E5000 model; every terminal
/// reached is loaded through the simulator.
sim::SimStats simulatedQueens() {
  sim::MemoryHierarchy Hierarchy(sim::HierarchyConfig::ultraSparcE5000());
  CcAllocator Alloc;
  BddManager Mgr(25, Alloc, &Hierarchy);
  evalRandom(Mgr, buildNQueens(Mgr, 5), 5000, 11);
  return Hierarchy.stats();
}

} // namespace

TEST(Bdd, TerminalsAreDistinctAndTerminal) {
  Managed M(4);
  EXPECT_NE(M.Mgr.zero(), M.Mgr.one());
  EXPECT_TRUE(M.Mgr.isTerminal(M.Mgr.zero()));
  EXPECT_TRUE(M.Mgr.isTerminal(M.Mgr.one()));
}

TEST(Bdd, TerminalsComeFromTheAllocator) {
  Managed M(4);
  EXPECT_TRUE(M.Alloc.heap().owns(M.Mgr.zero()));
  EXPECT_TRUE(M.Alloc.heap().owns(M.Mgr.one()));
}

TEST(Bdd, VarEvaluatesToItsBit) {
  Managed M(4);
  BddNode *X2 = M.Mgr.var(2);
  EXPECT_TRUE(M.Mgr.eval(X2, 0b0100));
  EXPECT_FALSE(M.Mgr.eval(X2, 0b1011));
}

TEST(Bdd, NVarIsComplement) {
  Managed M(4);
  BddNode *NX1 = M.Mgr.nvar(1);
  EXPECT_FALSE(M.Mgr.eval(NX1, 0b0010));
  EXPECT_TRUE(M.Mgr.eval(NX1, 0b0101));
}

TEST(Bdd, HashConsingReturnsSamePointer) {
  Managed M(4);
  EXPECT_EQ(M.Mgr.var(0), M.Mgr.var(0));
  BddNode *A = M.Mgr.bddAnd(M.Mgr.var(0), M.Mgr.var(1));
  BddNode *B = M.Mgr.bddAnd(M.Mgr.var(0), M.Mgr.var(1));
  EXPECT_EQ(A, B);
}

TEST(Bdd, IteTerminalRules) {
  Managed M(4);
  BddNode *F = M.Mgr.var(0);
  EXPECT_EQ(M.Mgr.ite(M.Mgr.one(), F, M.Mgr.zero()), F);
  EXPECT_EQ(M.Mgr.ite(M.Mgr.zero(), F, M.Mgr.one()), M.Mgr.one());
  EXPECT_EQ(M.Mgr.ite(F, M.Mgr.one(), M.Mgr.one()), M.Mgr.one());
  EXPECT_EQ(M.Mgr.ite(F, M.Mgr.one(), M.Mgr.zero()), F);
}

TEST(Bdd, AndTruthTable) {
  Managed M(2);
  BddNode *F = M.Mgr.bddAnd(M.Mgr.var(0), M.Mgr.var(1));
  EXPECT_FALSE(M.Mgr.eval(F, 0b00));
  EXPECT_FALSE(M.Mgr.eval(F, 0b01));
  EXPECT_FALSE(M.Mgr.eval(F, 0b10));
  EXPECT_TRUE(M.Mgr.eval(F, 0b11));
}

TEST(Bdd, OrTruthTable) {
  Managed M(2);
  BddNode *F = M.Mgr.bddOr(M.Mgr.var(0), M.Mgr.var(1));
  EXPECT_FALSE(M.Mgr.eval(F, 0b00));
  EXPECT_TRUE(M.Mgr.eval(F, 0b01));
  EXPECT_TRUE(M.Mgr.eval(F, 0b10));
  EXPECT_TRUE(M.Mgr.eval(F, 0b11));
}

TEST(Bdd, XorTruthTable) {
  Managed M(2);
  BddNode *F = M.Mgr.bddXor(M.Mgr.var(0), M.Mgr.var(1));
  EXPECT_FALSE(M.Mgr.eval(F, 0b00));
  EXPECT_TRUE(M.Mgr.eval(F, 0b01));
  EXPECT_TRUE(M.Mgr.eval(F, 0b10));
  EXPECT_FALSE(M.Mgr.eval(F, 0b11));
}

TEST(Bdd, NotIsInvolution) {
  Managed M(3);
  BddNode *F = M.Mgr.bddOr(M.Mgr.var(0), M.Mgr.bddAnd(M.Mgr.var(1),
                                                      M.Mgr.var(2)));
  EXPECT_EQ(M.Mgr.bddNot(M.Mgr.bddNot(F)), F);
}

TEST(Bdd, DeMorgan) {
  Managed M(2);
  BddNode *Lhs = M.Mgr.bddNot(M.Mgr.bddAnd(M.Mgr.var(0), M.Mgr.var(1)));
  BddNode *Rhs =
      M.Mgr.bddOr(M.Mgr.bddNot(M.Mgr.var(0)), M.Mgr.bddNot(M.Mgr.var(1)));
  EXPECT_EQ(Lhs, Rhs); // Canonicity: equivalent functions share a node.
}

TEST(Bdd, SatCountSimple) {
  Managed M(3);
  EXPECT_DOUBLE_EQ(M.Mgr.satCount(M.Mgr.one()), 8.0);
  EXPECT_DOUBLE_EQ(M.Mgr.satCount(M.Mgr.zero()), 0.0);
  EXPECT_DOUBLE_EQ(M.Mgr.satCount(M.Mgr.var(0)), 4.0);
  EXPECT_DOUBLE_EQ(
      M.Mgr.satCount(M.Mgr.bddAnd(M.Mgr.var(0), M.Mgr.var(1))), 2.0);
  EXPECT_DOUBLE_EQ(
      M.Mgr.satCount(M.Mgr.bddXor(M.Mgr.var(0), M.Mgr.var(2))), 4.0);
}

TEST(Bdd, NodeCountReducedForm) {
  Managed M(2);
  // x0 XOR x1 has 3 internal nodes in reduced form.
  BddNode *F = M.Mgr.bddXor(M.Mgr.var(0), M.Mgr.var(1));
  EXPECT_EQ(M.Mgr.nodeCount(F), 3u);
}

TEST(Bdd, EvalAgreesWithFormula) {
  Managed M(6);
  // f = (x0 & x3) | (x1 ^ x5)
  BddNode *F = M.Mgr.bddOr(M.Mgr.bddAnd(M.Mgr.var(0), M.Mgr.var(3)),
                           M.Mgr.bddXor(M.Mgr.var(1), M.Mgr.var(5)));
  for (uint64_t Assign = 0; Assign < 64; ++Assign) {
    bool X0 = Assign & 1, X1 = Assign & 2, X3 = Assign & 8,
         X5 = Assign & 32;
    bool Expected = (X0 && X3) || (X1 != X5);
    EXPECT_EQ(M.Mgr.eval(F, Assign), Expected) << Assign;
  }
}

TEST(Bdd, UniqueTableGrowthKeepsConsing) {
  Managed M(24);
  // Force many nodes to trigger rehash, then verify consing survives.
  BddNode *F = M.Mgr.zero();
  for (unsigned I = 0; I + 1 < 24; I += 2)
    F = M.Mgr.bddOr(F, M.Mgr.bddAnd(M.Mgr.var(I), M.Mgr.var(I + 1)));
  EXPECT_GT(M.Mgr.uniqueNodes(), 0u);
  BddNode *G = M.Mgr.zero();
  for (unsigned I = 0; I + 1 < 24; I += 2)
    G = M.Mgr.bddOr(G, M.Mgr.bddAnd(M.Mgr.var(I), M.Mgr.var(I + 1)));
  EXPECT_EQ(F, G);
}

TEST(Bdd, HintsDoNotChangeSemantics) {
  Managed WithHints(8, true);
  Managed NoHints(8, false);
  BddNode *F1 = buildNQueens(WithHints.Mgr, 2); // Unsatisfiable.
  BddNode *F2 = buildNQueens(NoHints.Mgr, 2);
  EXPECT_EQ(F1, WithHints.Mgr.zero());
  EXPECT_EQ(F2, NoHints.Mgr.zero());
}

TEST(BddWorkloads, QueensCounts) {
  // Known N-queens solution counts: 1, 0, 0, 2, 10.
  {
    Managed M(1);
    EXPECT_DOUBLE_EQ(M.Mgr.satCount(buildNQueens(M.Mgr, 1)), 1.0);
  }
  {
    Managed M(9);
    EXPECT_DOUBLE_EQ(M.Mgr.satCount(buildNQueens(M.Mgr, 3)), 0.0);
  }
  {
    Managed M(16);
    EXPECT_DOUBLE_EQ(M.Mgr.satCount(buildNQueens(M.Mgr, 4)), 2.0);
  }
  {
    Managed M(25);
    EXPECT_DOUBLE_EQ(M.Mgr.satCount(buildNQueens(M.Mgr, 5)), 10.0);
  }
}

TEST(BddWorkloads, QueensSix) {
  Managed M(36);
  EXPECT_DOUBLE_EQ(M.Mgr.satCount(buildNQueens(M.Mgr, 6)), 4.0);
}

TEST(BddWorkloads, AdderImplementationsEquivalent) {
  for (unsigned Bits : {1u, 2u, 4u, 8u, 12u}) {
    Managed M(2 * Bits);
    BddNode *Miter = buildAdderEquivalence(M.Mgr, Bits);
    EXPECT_EQ(Miter, M.Mgr.zero()) << Bits << " bits";
  }
}

TEST(BddWorkloads, EvalRandomDeterministic) {
  Managed M(16);
  BddNode *F = buildNQueens(M.Mgr, 4);
  uint64_t A = evalRandom(M.Mgr, F, 1000, 42);
  uint64_t B = evalRandom(M.Mgr, F, 1000, 42);
  EXPECT_EQ(A, B);
  // 4-queens has 2 solutions out of 65536: expect very few hits.
  EXPECT_LT(A, 10u);
}

TEST(Bdd, SimulatedRunCountsAccesses) {
  sim::HierarchyConfig Config;
  Config.L1 = {4 * 1024, 32, 1, 1};
  Config.L2 = {64 * 1024, 64, 2, 6};
  Config.MemoryLatency = 50;
  Config.Tlb.Enabled = false;
  sim::MemoryHierarchy Hierarchy(Config);
  CcAllocator Alloc;
  BddManager Mgr(16, Alloc, &Hierarchy);
  BddNode *F = buildNQueens(Mgr, 4);
  EXPECT_GT(Hierarchy.stats().Reads, 0u);
  uint64_t Before = Hierarchy.stats().Reads;
  evalRandom(Mgr, F, 100, 7);
  EXPECT_GT(Hierarchy.stats().Reads, Before);
}

TEST(Bdd, StrategiesProduceSameFunctions) {
  for (heap::CcStrategy S :
       {heap::CcStrategy::Closest, heap::CcStrategy::NewBlock,
        heap::CcStrategy::FirstFit}) {
    CcAllocator Alloc(CacheParams(), S);
    BddManager Mgr(16, Alloc);
    BddNode *F = buildNQueens(Mgr, 4);
    EXPECT_DOUBLE_EQ(Mgr.satCount(F), 2.0);
  }
}

TEST(Bdd, SimulatedRunIsTheSameOnAnyThread) {
  // Nothing the simulator sees may live on the calling thread's stack.
  sim::SimStats Main = simulatedQueens();
  sim::SimStats Worker;
  std::thread T([&] { Worker = simulatedQueens(); });
  T.join();
  EXPECT_GT(Main.memoryReferences(), 0u);
  EXPECT_EQ(Main.Reads, Worker.Reads);
  EXPECT_EQ(Main.Writes, Worker.Writes);
  EXPECT_EQ(Main.L1Misses, Worker.L1Misses);
  EXPECT_EQ(Main.L2Misses, Worker.L2Misses);
  EXPECT_EQ(Main.TlbMisses, Worker.TlbMisses);
  EXPECT_EQ(Main.totalCycles(), Worker.totalCycles());
}
