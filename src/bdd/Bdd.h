//===- bdd/Bdd.h - Binary decision diagram package --------------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch BDD package standing in for VIS's core data structure
/// (paper §4.3): reduced ordered binary decision diagrams with a
/// hash-consing unique table, an ITE operation with a computed cache,
/// and model counting / evaluation traversals.
///
/// BDDs are DAGs, so — exactly as the paper notes — ccmorph cannot be
/// applied; instead every node allocation goes through ccmalloc with a
/// co-access hint (the node's low child), and the manager can be run on
/// the plain heap or any ccmalloc strategy for comparison. The manager
/// optionally drives a MemoryHierarchy so the same run yields simulated
/// cycle counts.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_BDD_BDD_H
#define CCL_BDD_BDD_H

#include "core/CcAllocator.h"
#include "sim/MemoryHierarchy.h"
#include "support/Align.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ccl::bdd {

/// A BDD node (24 bytes — two nodes share a 64-byte L2 block, like the
/// 32-bit DdNode of the paper's era). Terminals use Var == TerminalVar
/// with Value 0/1. Low = else-branch, High = then-branch. The unique
/// table is an external index (see BddManager), so nodes carry only the
/// graph itself.
struct BddNode {
  uint32_t Var;
  uint32_t Value;
  BddNode *Low;
  BddNode *High;
};
static_assert(sizeof(BddNode) == 24, "BddNode must stay 24 bytes");

/// Manager for one variable order. Nodes are never garbage collected
/// (workloads are sized to fit); memory comes from the caller's
/// CcAllocator so placement strategy is an experiment axis.
class BddManager {
public:
  static constexpr uint32_t TerminalVar = ~0u;

  /// \param NumVars number of decision variables (order = index order).
  /// \param Alloc allocator for nodes and the unique-table buckets.
  /// \param Hierarchy optional simulator driven by every node access.
  /// \param UseNearHints pass co-access hints to ccmalloc (false = the
  ///        plain-malloc baseline).
  BddManager(unsigned NumVars, CcAllocator &Alloc,
             sim::MemoryHierarchy *Hierarchy = nullptr,
             bool UseNearHints = true);

  BddNode *zero() { return &Terminal[0]; }
  BddNode *one() { return &Terminal[1]; }

  bool isTerminal(const BddNode *F) const { return F->Var == TerminalVar; }

  /// Projection function for variable \p Var.
  BddNode *var(unsigned Var);
  /// Complement of the projection function.
  BddNode *nvar(unsigned Var);

  /// If-then-else: the universal connective.
  BddNode *ite(BddNode *F, BddNode *G, BddNode *H);

  BddNode *bddAnd(BddNode *F, BddNode *G) { return ite(F, G, zero()); }
  BddNode *bddOr(BddNode *F, BddNode *G) { return ite(F, one(), G); }
  BddNode *bddNot(BddNode *F) { return ite(F, zero(), one()); }
  BddNode *bddXor(BddNode *F, BddNode *G) {
    return ite(F, bddNot(G), G);
  }

  /// Number of satisfying assignments over all NumVars variables.
  double satCount(BddNode *F);

  /// Evaluates \p F under an assignment (bit I of \p Assignment = value
  /// of variable I). Pure pointer-path traversal from root to terminal.
  bool eval(BddNode *F, uint64_t Assignment);

  /// Nodes reachable from \p F (distinct).
  uint64_t nodeCount(BddNode *F);

  unsigned numVars() const { return NumVars; }
  uint64_t uniqueNodes() const { return Unique.size(); }
  const CcAllocator &allocator() const { return Alloc; }

  /// Drops the computed cache (between workload phases).
  void clearComputedCache() { Computed.clear(); }

private:
  /// Simulated load of one node field.
  template <typename T> T ld(const T *Ptr) {
    if (Hierarchy)
      Hierarchy->read(addrOf(Ptr), sizeof(T));
    return *Ptr;
  }

  BddNode *findOrAdd(uint32_t Var, BddNode *Low, BddNode *High);
  uint32_t topVar(const BddNode *F, const BddNode *G, const BddNode *H);
  /// Cofactor of F with respect to Var = Positive.
  BddNode *cofactor(BddNode *F, uint32_t Var, bool Positive);

  struct UniqueKey {
    uint32_t Var;
    const BddNode *Low;
    const BddNode *High;
    bool operator==(const UniqueKey &O) const {
      return Var == O.Var && Low == O.Low && High == O.High;
    }
  };
  struct UniqueKeyHash {
    size_t operator()(const UniqueKey &K) const {
      uint64_t X = addrOf(K.Low) * 0x9e3779b97f4a7c15ULL;
      X ^= addrOf(K.High) * 0xc2b2ae3d27d4eb4fULL;
      X ^= K.Var;
      return static_cast<size_t>(X ^ (X >> 31));
    }
  };

  struct IteKey {
    const BddNode *F;
    const BddNode *G;
    const BddNode *H;
    bool operator==(const IteKey &O) const {
      return F == O.F && G == O.G && H == O.H;
    }
  };
  struct IteKeyHash {
    size_t operator()(const IteKey &K) const {
      uint64_t X = addrOf(K.F) * 0x9e3779b97f4a7c15ULL;
      X ^= addrOf(K.G) * 0xc2b2ae3d27d4eb4fULL;
      X ^= addrOf(K.H) * 0x165667b19e3779f9ULL;
      return static_cast<size_t>(X ^ (X >> 29));
    }
  };

  unsigned NumVars;
  CcAllocator &Alloc;
  sim::MemoryHierarchy *Hierarchy;
  bool UseNearHints;
  /// Zero and one, one chunk from Alloc: the simulator loads their
  /// fields, so they must not live wherever the manager does (a stack).
  BddNode *Terminal;
  /// Unique table: an external index from (Var, Low, High) to the
  /// canonical node; probes are charged as fixed manager overhead.
  std::unordered_map<UniqueKey, BddNode *, UniqueKeyHash> Unique;
  std::unordered_map<IteKey, BddNode *, IteKeyHash> Computed;
  std::vector<BddNode *> VarNodes;
  std::vector<BddNode *> NVarNodes;
};

} // namespace ccl::bdd

#endif // CCL_BDD_BDD_H
