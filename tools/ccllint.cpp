//===- tools/ccllint.cpp - Structure-layout lint driver -------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ccl-lint: analyzes every reflected structure layout in the library
/// and reports padding waste, cache-line straddling, dead fields, and
/// profile-guided hot/cold-split / field-reorder plans (lint/LayoutLint.h).
///
///   ccllint                          # static analysis, text report
///   ccllint --json [path]            # single-document JSON report
///   ccllint --fields prof.jsonl      # use a ccl-fields-v1 profile
///                                    # (exit 66 if it is unreadable)
///   ccllint --profile-workload trees # collect a live tree-search profile
///   ccllint --confirm                # re-simulate emitted plans
///   ccllint --check                  # exit 2 when thresholds trip
///
/// Threshold flags (--check gates): --max-padding-frac, --max-straddle-frac,
/// --cold-frac, --min-plan-gain, --fail-on-dead-field, --fail-on-plan-gain.
/// A numeric flag whose whole argument is not one number exits 64.
///
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "core/CacheParams.h"
#include "heap/CcHeap.h"
#include "lint/LayoutLint.h"
#include "obs/FieldProfile.h"
#include "olden/Health.h"
#include "olden/Mst.h"
#include "olden/Perimeter.h"
#include "olden/TreeAdd.h"
#include "sim/AccessPolicy.h"
#include "sim/MemoryHierarchy.h"
#include "trees/BTree.h"
#include "trees/BinaryTree.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <unordered_set>
#include <string>
#include <vector>

using namespace ccl;

namespace {

void reflectAll() {
  trees::reflectTreeTypes();
  olden::reflectHealthTypes();
  olden::reflectMstTypes();
  olden::reflectTreeAddTypes();
  olden::reflectPerimeterTypes();
  bdd::reflectBddTypes();
  heap::CcHeap::reflectTypes();
  sim::reflectSimTypes();
}

void registerBstNodes(const trees::BstNode *Node, uint32_t TypeId,
                      obs::FieldProfileSink &Sink) {
  std::deque<const trees::BstNode *> Work{Node};
  while (!Work.empty()) {
    const trees::BstNode *N = Work.front();
    Work.pop_front();
    if (!N)
      continue;
    Sink.addObject(N, TypeId);
    Work.push_back(N->Left);
    Work.push_back(N->Right);
  }
}

void registerBTreeNodes(const trees::BTreeNode *Root, uint32_t TypeId,
                        obs::FieldProfileSink &Sink) {
  std::deque<const trees::BTreeNode *> Work{Root};
  while (!Work.empty()) {
    const trees::BTreeNode *N = Work.front();
    Work.pop_front();
    if (!N)
      continue;
    Sink.addObject(N, TypeId);
    if (!N->Leaf)
      for (unsigned I = 0; I <= N->Count; ++I)
        Work.push_back(N->Kids[I]);
  }
}

/// Builds the Figure 5 microbenchmark structures (randomly laid out
/// BST + bulk-loaded B-tree), drives simulated searches through the
/// E5000 hierarchy with a FieldProfileSink attached, and returns the
/// collected field-affinity profile.
void collectTreeProfile(obs::FieldProfileSink &Sink) {
  auto Config = sim::HierarchyConfig::ultraSparcE5000();
  CacheParams Params = CacheParams::fromHierarchy(Config);

  const uint64_t NumKeys = 1 << 14; // ~16K nodes: working set >> L1
  auto Bst = trees::BinarySearchTree::build(NumKeys, LayoutScheme::Random);
  std::vector<uint32_t> Keys;
  Keys.reserve(NumKeys);
  for (uint64_t I = 0; I < NumKeys; ++I)
    Keys.push_back(trees::BinarySearchTree::keyAt(I));
  trees::BTree Btree = trees::BTree::buildFromSorted(Keys, Params);

  int BstId = reflect::TypeRegistry::global().idOf("BstNode");
  int BtId = reflect::TypeRegistry::global().idOf("BTreeNode");
  if (BstId >= 0)
    registerBstNodes(Bst.root(), uint32_t(BstId), Sink);
  if (BtId >= 0)
    registerBTreeNodes(Btree.root(), uint32_t(BtId), Sink);
  Sink.seal();

  sim::MemoryHierarchy M(Config);
  M.attachObserver(&Sink);
  sim::SimAccess A(M);
  uint64_t Rng = 0xcc11f0ced5eedULL;
  const uint32_t MaxKey = Bst.maxKey();
  for (uint64_t I = 0; I < 8 * NumKeys; ++I) {
    Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
    uint32_t Key = uint32_t((Rng >> 20) % (MaxKey + 2));
    Bst.search(Key, A);
    Btree.contains(Key, A);
  }
  M.attachObserver(nullptr);
}

/// Runs a shortened olden health simulation (E5000 hierarchy) with the
/// sink attached, binding every Village/Patient/ListCell allocation via
/// the benchmark's profiling hooks.
void collectHealthProfile(obs::FieldProfileSink &Sink) {
  auto Config = sim::HierarchyConfig::ultraSparcE5000();
  olden::HealthConfig HC;
  HC.Steps = 300; // enough visits for stable affinities, quick to run
  std::unordered_set<const void *> Seen;
  olden::HealthProfileHooks Hooks;
  Hooks.Observer = &Sink;
  Hooks.OnAlloc = [&](const void *Ptr, const char *TypeName) {
    // Freed nodes are recycled by the allocator; same-address rebinds of
    // the (typical) same type would only duplicate the binding.
    if (!Seen.insert(Ptr).second)
      return;
    int Id = reflect::TypeRegistry::global().idOf(TypeName);
    if (Id >= 0)
      Sink.addObject(Ptr, uint32_t(Id));
  };
  olden::runHealthProfiled(HC, Config, Hooks);
}

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--json [path]] [--check] [--confirm]\n"
      "          [--fields <ccl-fields-v1.jsonl>]\n"
      "          [--profile-workload trees|health|all]\n"
      "          [--fields-out <path>] [--max-padding-frac X]\n"
      "          [--max-straddle-frac X] [--cold-frac X] [--min-plan-gain X]\n"
      "          [--fail-on-dead-field] [--fail-on-plan-gain X]\n",
      Argv0);
  return 64;
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  bool Check = false;
  bool Confirm = false;
  std::string JsonPath;
  std::string FieldsPath;
  std::string FieldsOutPath;
  std::string Workload;
  lint::LintOptions Options;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "ccl-lint: %s needs a value\n", Flag);
        std::exit(64);
      }
      return argv[++I];
    };
    // The whole argument must be one finite number.
    auto Number = [&](const char *Flag) {
      const char *Text = Next(Flag);
      const char *End = Text + std::strlen(Text);
      double Value = 0;
      auto [Ptr, Ec] = std::from_chars(Text, End, Value);
      if (Ec != std::errc() || Ptr != End || !std::isfinite(Value)) {
        std::fprintf(stderr, "ccl-lint: %s needs a number, got '%s'\n", Flag,
                     Text);
        std::exit(64);
      }
      return Value;
    };
    if (Arg == "--json") {
      Json = true;
      if (I + 1 < argc && argv[I + 1][0] != '-')
        JsonPath = argv[++I];
    } else if (Arg == "--check") {
      Check = true;
    } else if (Arg == "--confirm") {
      Confirm = true;
    } else if (Arg == "--fields") {
      FieldsPath = Next("--fields");
    } else if (Arg == "--fields-out") {
      FieldsOutPath = Next("--fields-out");
    } else if (Arg == "--profile-workload") {
      Workload = Next("--profile-workload");
      if (Workload != "trees" && Workload != "health" &&
          Workload != "all") {
        std::fprintf(stderr, "ccl-lint: unknown workload '%s'\n",
                     Workload.c_str());
        return 64;
      }
    } else if (Arg == "--max-padding-frac") {
      Options.MaxPaddingFrac = Number(Arg.c_str());
    } else if (Arg == "--max-straddle-frac") {
      Options.MaxStraddleFrac = Number(Arg.c_str());
    } else if (Arg == "--cold-frac") {
      Options.ColdRefFrac = Number(Arg.c_str());
    } else if (Arg == "--min-plan-gain") {
      Options.MinPlanGain = Number(Arg.c_str());
    } else if (Arg == "--fail-on-dead-field") {
      Options.FailOnDeadField = true;
    } else if (Arg == "--fail-on-plan-gain") {
      Options.FailOnPlanGain = Number(Arg.c_str());
    } else if (Arg == "--help" || Arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "ccl-lint: unknown flag '%s'\n", Arg.c_str());
      return usage(argv[0]);
    }
  }

  reflectAll();

  lint::ProfileData Profile;
  bool HaveProfile = false;
  obs::FieldProfileSink Sink;

  if (!FieldsPath.empty()) {
    obs::FieldsDoc Doc;
    std::string Error;
    if (!obs::readFieldsFile(FieldsPath, Doc, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 66;
    }
    Profile.addFromDoc(Doc);
    HaveProfile = true;
  }
  if (!Workload.empty()) {
    if (Workload == "trees" || Workload == "all")
      collectTreeProfile(Sink);
    if (Workload == "health" || Workload == "all")
      collectHealthProfile(Sink);
    Profile.addFromSink(Sink);
    HaveProfile = true;
    if (!FieldsOutPath.empty()) {
      std::FILE *F = std::fopen(FieldsOutPath.c_str(), "w");
      if (!F) {
        std::fprintf(stderr, "ccl-lint: cannot write %s\n",
                     FieldsOutPath.c_str());
        return 73;
      }
      obs::writeFieldsJsonl(Sink, F);
      std::fclose(F);
    }
  }

  lint::LintReport Report = lint::analyze(reflect::TypeRegistry::global(),
                                          HaveProfile ? &Profile : nullptr,
                                          Options);

  if (Json) {
    std::FILE *Out = stdout;
    if (!JsonPath.empty()) {
      Out = std::fopen(JsonPath.c_str(), "w");
      if (!Out) {
        std::fprintf(stderr, "ccl-lint: cannot write %s\n", JsonPath.c_str());
        return 73;
      }
    }
    lint::renderJson(Report, Out);
    if (Out != stdout)
      std::fclose(Out);
    if (!JsonPath.empty())
      std::fprintf(stderr, "ccl-lint: wrote %s\n", JsonPath.c_str());
  } else {
    lint::renderText(Report, stdout);
  }

  if (Confirm) {
    auto Config = sim::HierarchyConfig::ultraSparcE5000();
    size_t Confirmed = 0, Plans = 0;
    for (const lint::Diagnostic &D : Report.Diags) {
      if (!D.HasPlan)
        continue;
      ++Plans;
      const reflect::TypeDesc *Desc =
          reflect::TypeRegistry::global().find(D.TypeName);
      if (!Desc)
        continue;
      const lint::TypeProfileView *View =
          HaveProfile ? Profile.forType(D.TypeName) : nullptr;
      lint::PlanConfirmation C =
          lint::confirmPlan(*Desc, View, D.Plan, Config);
      Confirmed += C.Confirmed;
      std::fprintf(stdout,
                   "confirm %-14s %-18s predicted %.2fx measured %.2fx "
                   "(%.3f -> %.3f misses/visit, %" PRIu64 " visits) %s\n",
                   lint::diagKindName(D.Kind), D.TypeName.c_str(),
                   C.PredictedGain, C.MeasuredGain, C.MissesPerVisitBefore,
                   C.MissesPerVisitAfter, C.Visits,
                   C.Confirmed ? "CONFIRMED" : "not-confirmed");
    }
    std::fprintf(stdout, "confirm: %zu/%zu plans confirmed\n", Confirmed,
                 Plans);
  }

  if (Check && Report.Errors > 0) {
    std::fprintf(stderr, "ccl-lint: %zu error(s) — check failed\n",
                 Report.Errors);
    return 2;
  }
  return 0;
}
