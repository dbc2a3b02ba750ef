//===- tests/lint_test.cpp - Layout linter tests --------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
// Covers the ccl-lint engine end to end: reflection registry facts,
// straddle math, the golden diagnostic set over a deliberately bad
// struct (hot fields interleaved with cold bulk), plan confirmation by
// re-simulation, ccl-fields-v1 export/re-read parity, the --check
// error-counting semantics, and the observer-detachment golden-stats
// contract that lets profiling runs coexist with golden tests.
//
//===----------------------------------------------------------------------===//

#include "lint/LayoutLint.h"

#include "obs/FieldProfile.h"
#include "sim/AccessPolicy.h"
#include "sim/MemoryHierarchy.h"
#include "support/Reflect.h"
#include "trees/BinaryTree.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <string>

using namespace ccl;
using namespace ccl::lint;

namespace {

//===----------------------------------------------------------------------===//
// Fixture structs
//===----------------------------------------------------------------------===//

/// Deliberately bad layout: three hot scalars interleaved with 72 bytes
/// of cold bulk, so nearly every hot visit drags cold bytes through the
/// cache. The linter should propose a hot/cold split.
struct BadRecord {
  uint64_t Id;          // hot
  char Name[24];        // cold (display only)
  double LastReading;   // hot
  char Notes[48];       // cold (display only)
  uint32_t Flags;       // hot
};

/// Reflection probe covering scalars, pointers, and arrays.
struct Probe {
  uint8_t A;
  uint64_t B;
  uint16_t C;
  void *D;
  float E[3];
};

uint32_t reflectBadRecord() {
  return CCL_REFLECT("test", BadRecord, Id, Name, LastReading, Notes,
                     Flags);
}

uint32_t reflectProbe() {
  return CCL_REFLECT("test", Probe, A, B, C, D, E);
}

/// Synthetic affinity profile for BadRecord: hot scalars referenced on
/// every visit, Name nearly never, Notes never.
TypeProfileView badRecordProfile() {
  TypeProfileView View;
  auto Add = [&](const char *Name, uint64_t Reads, uint64_t Writes,
                 uint64_t BytesPerRef) {
    obs::FieldCounters C;
    C.Reads = Reads;
    C.Writes = Writes;
    C.BytesAccessed = (Reads + Writes) * BytesPerRef;
    C.L1Misses = (Reads + Writes) / 2;
    View.Fields.emplace_back(Name, C);
    View.Accesses += Reads + Writes;
  };
  Add("Id", 200000, 0, 8);
  Add("LastReading", 180000, 0, 8);
  Add("Flags", 150000, 50000, 4);
  Add("Name", 300, 0, 24);
  Add("Notes", 0, 0, 0);
  return View;
}

const Diagnostic *findDiag(const std::vector<Diagnostic> &Diags,
                           DiagKind Kind, const std::string &Field = "") {
  for (const Diagnostic &D : Diags)
    if (D.Kind == Kind && (Field.empty() || D.Field == Field))
      return &D;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Reflection round-trip
//===----------------------------------------------------------------------===//

TEST(Reflect, RoundTripsLayoutFacts) {
  reflectProbe();
  const reflect::TypeDesc *Desc =
      reflect::TypeRegistry::global().find("Probe");
  ASSERT_NE(Desc, nullptr);
  EXPECT_EQ(Desc->Module, "test");
  EXPECT_EQ(Desc->Size, sizeof(Probe));
  EXPECT_EQ(Desc->Align, alignof(Probe));
  ASSERT_EQ(Desc->Fields.size(), 5u);

  // Fields come back sorted by offset with exact offsetof/sizeof facts.
  EXPECT_EQ(Desc->Fields[0].Name, "A");
  EXPECT_EQ(Desc->Fields[0].Offset, offsetof(Probe, A));
  EXPECT_EQ(Desc->Fields[1].Name, "B");
  EXPECT_EQ(Desc->Fields[1].Offset, offsetof(Probe, B));
  EXPECT_EQ(Desc->Fields[1].Size, sizeof(uint64_t));
  EXPECT_EQ(Desc->Fields[3].Name, "D");
  EXPECT_TRUE(Desc->Fields[3].IsPointer);
  EXPECT_EQ(Desc->Fields[3].TypeName, "ptr");
  EXPECT_EQ(Desc->Fields[4].Name, "E");
  EXPECT_EQ(Desc->Fields[4].ElemCount, 3u);
  EXPECT_EQ(Desc->Fields[4].TypeName, "f32[3]");
  EXPECT_EQ(Desc->Fields[4].Size, 3 * sizeof(float));

  // Padding helpers: declared bytes vs sizeof.
  uint32_t Declared = 1 + 8 + 2 + sizeof(void *) + 12;
  EXPECT_EQ(Desc->fieldBytes(), Declared);
  EXPECT_EQ(Desc->paddingBytes(), sizeof(Probe) - Declared);

  // fieldAt resolves interior bytes and classifies padding as -1.
  EXPECT_EQ(Desc->fieldAt(offsetof(Probe, B) + 3), 1);
  EXPECT_EQ(Desc->fieldAt(1), -1); // hole between A and B

  // Re-registration is an idempotent no-op returning the same id.
  uint32_t Id1 = reflectProbe();
  uint32_t Id2 = reflectProbe();
  EXPECT_EQ(Id1, Id2);
}

//===----------------------------------------------------------------------===//
// Straddle math
//===----------------------------------------------------------------------===//

TEST(StraddleFraction, MatchesHandComputedPhases) {
  // Stride == line: a span inside the line never straddles...
  EXPECT_DOUBLE_EQ(straddleFraction(16, 0, 8, 16), 0.0);
  // ...and a span crossing the boundary straddles in every placement.
  EXPECT_DOUBLE_EQ(straddleFraction(16, 12, 8, 16), 1.0);
  // 24-byte objects packed against 64-byte lines: phases repeat every
  // lcm(24,64)/24 = 8 placements, 2 of which cross a boundary.
  EXPECT_NEAR(straddleFraction(24, 0, 24, 64), 0.25, 1e-9);
  // 64-byte objects, 64-aligned stride: never.
  EXPECT_DOUBLE_EQ(straddleFraction(64, 0, 64, 64), 0.0);
}

//===----------------------------------------------------------------------===//
// Golden diagnostics over the deliberately bad struct
//===----------------------------------------------------------------------===//

TEST(LintAnalyze, BadRecordGetsSplitPlanAndDeadField) {
  reflectBadRecord();
  const reflect::TypeDesc *Desc =
      reflect::TypeRegistry::global().find("BadRecord");
  ASSERT_NE(Desc, nullptr);
  TypeProfileView View = badRecordProfile();

  LintOptions Opt;
  std::vector<Diagnostic> Diags;
  analyzeType(*Desc, &View, Opt, Diags);

  // Notes has zero references in a large profile -> dead field.
  const Diagnostic *Dead = findDiag(Diags, DiagKind::DeadField, "Notes");
  ASSERT_NE(Dead, nullptr);
  EXPECT_FALSE(Dead->Error); // FailOnDeadField off by default

  // The headline diagnostic: a hot/cold split with a concrete plan.
  const Diagnostic *Split = findDiag(Diags, DiagKind::HotColdSplit);
  ASSERT_NE(Split, nullptr);
  ASSERT_TRUE(Split->HasPlan);
  const LayoutPlan &Plan = Split->Plan;

  // Hot structure sheds the cold bulk.
  EXPECT_LT(Plan.NewSize, Desc->Size);
  EXPECT_GT(Plan.ColdSize, 0u);
  EXPECT_GE(Plan.PredictedGain, 1.5);

  // Every hot scalar stays hot; the cold bulk moves out.
  for (const FieldPlanEntry &E : Plan.Fields) {
    if (E.Name == "Id" || E.Name == "LastReading" || E.Name == "Flags") {
      EXPECT_TRUE(E.Hot) << E.Name;
    }
    if (E.Name == "Name" || E.Name == "Notes") {
      EXPECT_FALSE(E.Hot) << E.Name;
      EXPECT_TRUE(E.InColdStruct) << E.Name;
    }
  }

  // Plan offsets are self-consistent: hot fields fit the hot struct,
  // cold fields fit the cold struct, no overlaps within either.
  for (const FieldPlanEntry &A : Plan.Fields) {
    uint32_t Limit = A.InColdStruct ? Plan.ColdSize : Plan.NewSize;
    EXPECT_LE(A.NewOffset + A.Size, Limit) << A.Name;
    for (const FieldPlanEntry &B : Plan.Fields) {
      if (&A == &B || A.InColdStruct != B.InColdStruct)
        continue;
      bool Disjoint = A.NewOffset + A.Size <= B.NewOffset ||
                      B.NewOffset + B.Size <= A.NewOffset;
      EXPECT_TRUE(Disjoint) << A.Name << " overlaps " << B.Name;
    }
  }
}

TEST(LintAnalyze, ThresholdsPromoteWarningsToErrors) {
  reflectBadRecord();
  const reflect::TypeDesc *Desc =
      reflect::TypeRegistry::global().find("BadRecord");
  ASSERT_NE(Desc, nullptr);
  TypeProfileView View = badRecordProfile();

  // Defaults: BadRecord's 4-byte tail pad stays a warning.
  {
    LintOptions Opt;
    std::vector<Diagnostic> Diags;
    analyzeType(*Desc, &View, Opt, Diags);
    for (const Diagnostic &D : Diags)
      EXPECT_FALSE(D.Kind == DiagKind::TailPadding && D.Error);
  }
  // Tight padding budget: the same diagnostic becomes an Error (which
  // is exactly what drives ccllint --check's non-zero exit).
  {
    LintOptions Opt;
    Opt.MaxPaddingFrac = 0.01;
    std::vector<Diagnostic> Diags;
    analyzeType(*Desc, &View, Opt, Diags);
    const Diagnostic *Pad = findDiag(Diags, DiagKind::TailPadding);
    ASSERT_NE(Pad, nullptr);
    EXPECT_TRUE(Pad->Error);
  }
  // Dead fields and left-on-the-table plans promote on request.
  {
    LintOptions Opt;
    Opt.FailOnDeadField = true;
    Opt.FailOnPlanGain = 1.2;
    std::vector<Diagnostic> Diags;
    analyzeType(*Desc, &View, Opt, Diags);
    const Diagnostic *Dead = findDiag(Diags, DiagKind::DeadField, "Notes");
    ASSERT_NE(Dead, nullptr);
    EXPECT_TRUE(Dead->Error);
    const Diagnostic *Split = findDiag(Diags, DiagKind::HotColdSplit);
    ASSERT_NE(Split, nullptr);
    EXPECT_TRUE(Split->Error);
  }
}

TEST(LintAnalyze, ReportCountsErrorsAndRanksThemFirst) {
  reflectBadRecord();
  ProfileData Profile;
  obs::FieldsDoc Doc;
  // Route the synthetic profile through the documented doc path.
  obs::FieldsTypeDoc T;
  T.Name = "BadRecord";
  T.Module = "test";
  T.Size = sizeof(BadRecord);
  TypeProfileView View = badRecordProfile();
  T.Accesses = View.Accesses;
  for (auto &[Name, Counters] : View.Fields) {
    obs::FieldsFieldDoc F;
    F.Name = Name;
    F.Counters = Counters;
    T.Fields.push_back(F);
  }
  Doc.Types.push_back(T);
  Profile.addFromDoc(Doc);

  LintOptions Opt;
  Opt.FailOnDeadField = true;
  LintReport Report =
      analyze(reflect::TypeRegistry::global(), &Profile, Opt);
  ASSERT_GT(Report.Errors, 0u);
  EXPECT_GE(Report.TypesAnalyzed, 2u); // BadRecord + Probe at least
  EXPECT_EQ(Report.TypesProfiled, 1u);
  // Ranking contract: all errors precede all warnings.
  for (size_t I = 0; I < Report.Errors; ++I)
    EXPECT_TRUE(Report.Diags[I].Error) << I;
  for (size_t I = Report.Errors; I < Report.Diags.size(); ++I)
    EXPECT_FALSE(Report.Diags[I].Error) << I;
}

//===----------------------------------------------------------------------===//
// Plan confirmation by re-simulation
//===----------------------------------------------------------------------===//

TEST(ConfirmPlan, BadRecordSplitConfirmsUnderResimulation) {
  reflectBadRecord();
  const reflect::TypeDesc *Desc =
      reflect::TypeRegistry::global().find("BadRecord");
  ASSERT_NE(Desc, nullptr);
  TypeProfileView View = badRecordProfile();

  LintOptions Opt;
  std::vector<Diagnostic> Diags;
  analyzeType(*Desc, &View, Opt, Diags);
  const Diagnostic *Split = findDiag(Diags, DiagKind::HotColdSplit);
  ASSERT_NE(Split, nullptr);
  ASSERT_TRUE(Split->HasPlan);

  auto Config = sim::HierarchyConfig::ultraSparcE5000();
  PlanConfirmation C = confirmPlan(*Desc, &View, Split->Plan, Config);
  EXPECT_GT(C.Visits, 0u);
  EXPECT_GT(C.Objects, 0u);
  EXPECT_GT(C.MeasuredGain, 1.0);
  EXPECT_TRUE(C.Confirmed)
      << "predicted " << C.PredictedGain << "x, measured "
      << C.MeasuredGain << "x (" << C.MissesPerVisitBefore << " -> "
      << C.MissesPerVisitAfter << " misses/visit)";

  // Determinism: the confirm harness is seeded, so a rerun must
  // reproduce the measurement bit-for-bit.
  PlanConfirmation C2 = confirmPlan(*Desc, &View, Split->Plan, Config);
  EXPECT_EQ(C.MissesPerVisitBefore, C2.MissesPerVisitBefore);
  EXPECT_EQ(C.MissesPerVisitAfter, C2.MissesPerVisitAfter);
}

//===----------------------------------------------------------------------===//
// ccl-fields-v1 export / re-read parity
//===----------------------------------------------------------------------===//

TEST(FieldsExport, JsonlRoundTripsCounters) {
  uint32_t ProbeId = reflectProbe();

  obs::FieldProfileSink Sink;
  alignas(Probe) static Probe Objects[2];
  Sink.addObject(&Objects[0], ProbeId);
  Sink.addObject(&Objects[1], ProbeId);
  Sink.seal();

  // Synthetic events: 3 reads of B on object 0, 1 write of C on object
  // 1, one L2 miss among them.
  auto Emit = [&](const void *Obj, size_t Off, uint32_t Size, bool Write,
                  obs::AccessLevel Level) {
    obs::AccessEvent E;
    E.VAddr = reinterpret_cast<uint64_t>(Obj) + Off;
    E.Size = Size;
    E.IsWrite = Write;
    E.Level = Level;
    E.Cycles = 7;
    Sink.onAccess(E);
  };
  Emit(&Objects[0], offsetof(Probe, B), 8, false, obs::AccessLevel::L1Hit);
  Emit(&Objects[0], offsetof(Probe, B), 8, false, obs::AccessLevel::L2Hit);
  Emit(&Objects[0], offsetof(Probe, B), 8, false, obs::AccessLevel::Memory);
  Emit(&Objects[1], offsetof(Probe, C), 2, true, obs::AccessLevel::L1Hit);

  EXPECT_EQ(Sink.attributedEvents(), 4u);

  std::string Path = testing::TempDir() + "/lint_fields_roundtrip.jsonl";
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  ASSERT_NE(Out, nullptr);
  obs::writeFieldsJsonl(Sink, Out);
  std::fclose(Out);

  obs::FieldsDoc Doc;
  std::string Error;
  ASSERT_TRUE(obs::readFieldsFile(Path, Doc, Error)) << Error;
  EXPECT_EQ(Doc.Schema, "ccl-fields-v1");
  EXPECT_EQ(Doc.Attributed, 4u);

  const obs::FieldsTypeDoc *T = Doc.findType("Probe");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Size, sizeof(Probe));
  EXPECT_EQ(T->Objects, 2u);
  EXPECT_EQ(T->Accesses, 4u);

  const obs::FieldsFieldDoc *B = nullptr, *C = nullptr;
  for (const obs::FieldsFieldDoc &F : T->Fields) {
    if (F.Name == "B")
      B = &F;
    if (F.Name == "C")
      C = &F;
  }
  ASSERT_NE(B, nullptr);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(B->Counters.Reads, 3u);
  EXPECT_EQ(B->Counters.Writes, 0u);
  EXPECT_EQ(B->Counters.L1Misses, 2u); // L2Hit + Memory both missed L1
  EXPECT_EQ(B->Counters.L2Misses, 1u);
  EXPECT_EQ(B->Counters.BytesAccessed, 24u);
  EXPECT_EQ(B->Counters.Cycles, 21u);
  EXPECT_EQ(C->Counters.Writes, 1u);
  EXPECT_EQ(C->Counters.BytesAccessed, 2u);

  // Re-reading through the linter's profile store preserves counters.
  ProfileData Profile;
  Profile.addFromDoc(Doc);
  const TypeProfileView *View = Profile.forType("Probe");
  ASSERT_NE(View, nullptr);
  const obs::FieldCounters *BC = View->counters("B");
  ASSERT_NE(BC, nullptr);
  EXPECT_EQ(BC->refs(), 3u);
  EXPECT_EQ(View->visits(), 3u);
}

//===----------------------------------------------------------------------===//
// Observer contract: attaching the profiler must not change golden stats
//===----------------------------------------------------------------------===//

TEST(FieldsProfile, AttachedSinkKeepsSimStatsBitIdentical) {
  uint32_t BstId = reflectProbe(); // any valid id works for bindings
  auto Config = sim::HierarchyConfig::ultraSparcE5000();
  auto Tree =
      trees::BinarySearchTree::build(1 << 10, LayoutScheme::Random);

  auto RunSearches = [&](sim::MemoryHierarchy &M) {
    sim::SimAccess A(M);
    uint64_t Rng = 0x5eedcc1u;
    for (int I = 0; I < 20000; ++I) {
      Rng = Rng * 6364136223846793005ULL + 1442695040888963407ULL;
      Tree.search(uint32_t((Rng >> 20) % (1 << 10)), A);
    }
  };

  sim::MemoryHierarchy Bare(Config);
  RunSearches(Bare);

  sim::MemoryHierarchy Observed(Config);
  obs::FieldProfileSink Sink;
  std::deque<const trees::BstNode *> Work{Tree.root()};
  while (!Work.empty()) {
    const trees::BstNode *N = Work.front();
    Work.pop_front();
    if (!N)
      continue;
    Sink.addObject(N, BstId);
    Work.push_back(N->Left);
    Work.push_back(N->Right);
  }
  Sink.seal();
  Observed.attachObserver(&Sink);
  RunSearches(Observed);
  Observed.attachObserver(nullptr);

  const sim::SimStats &S1 = Bare.stats();
  const sim::SimStats &S2 = Observed.stats();
  EXPECT_EQ(S1.Reads, S2.Reads);
  EXPECT_EQ(S1.Writes, S2.Writes);
  EXPECT_EQ(S1.L1Hits, S2.L1Hits);
  EXPECT_EQ(S1.L1Misses, S2.L1Misses);
  EXPECT_EQ(S1.L2Hits, S2.L2Hits);
  EXPECT_EQ(S1.L2Misses, S2.L2Misses);
  EXPECT_EQ(S1.TlbMisses, S2.TlbMisses);
  EXPECT_EQ(S1.totalCycles(), S2.totalCycles());
}

//===----------------------------------------------------------------------===//
// Rendering smoke
//===----------------------------------------------------------------------===//

TEST(LintRender, JsonDocumentCarriesSchemaAndPlans) {
  reflectBadRecord();
  ProfileData Profile;
  obs::FieldsDoc Doc;
  obs::FieldsTypeDoc T;
  T.Name = "BadRecord";
  T.Module = "test";
  T.Size = sizeof(BadRecord);
  TypeProfileView View = badRecordProfile();
  T.Accesses = View.Accesses;
  for (auto &[Name, Counters] : View.Fields) {
    obs::FieldsFieldDoc F;
    F.Name = Name;
    F.Counters = Counters;
    T.Fields.push_back(F);
  }
  Doc.Types.push_back(T);
  Profile.addFromDoc(Doc);

  LintOptions Opt;
  LintReport Report =
      analyze(reflect::TypeRegistry::global(), &Profile, Opt);

  std::string Path = testing::TempDir() + "/lint_report.json";
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  ASSERT_NE(Out, nullptr);
  renderJson(Report, Out);
  std::fclose(Out);

  std::FILE *In = std::fopen(Path.c_str(), "r");
  ASSERT_NE(In, nullptr);
  std::string Content;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
    Content.append(Buf, N);
  std::fclose(In);

  EXPECT_NE(Content.find("\"schema\":\"ccl-lint-v1\""), std::string::npos);
  EXPECT_NE(Content.find("\"hot-cold-split\""), std::string::npos);
  EXPECT_NE(Content.find("\"BadRecord\""), std::string::npos);
  EXPECT_NE(Content.find("\"plan\""), std::string::npos);
  EXPECT_NE(Content.find("\"binary\""), std::string::npos);
}

} // namespace
