//===- lint/LayoutLint.cpp - Structure-layout static analyzer -------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "lint/LayoutLint.h"

#include "obs/Json.h"
#include "sim/MemoryHierarchy.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <numeric>

using namespace ccl;
using namespace ccl::lint;
using reflect::FieldDesc;
using reflect::TypeDesc;

const char *ccl::lint::diagKindName(DiagKind Kind) {
  switch (Kind) {
  case DiagKind::PaddingHole:
    return "padding-hole";
  case DiagKind::TailPadding:
    return "tail-padding";
  case DiagKind::LineStraddle:
    return "line-straddle";
  case DiagKind::DeadField:
    return "dead-field";
  case DiagKind::HotColdSplit:
    return "hot-cold-split";
  case DiagKind::FieldReorder:
    return "field-reorder";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Profile views
//===----------------------------------------------------------------------===//

const obs::FieldCounters *
TypeProfileView::counters(const std::string &Name) const {
  for (const auto &[FieldName, C] : Fields)
    if (FieldName == Name)
      return &C;
  return nullptr;
}

uint64_t TypeProfileView::visits() const {
  uint64_t Max = 0;
  for (const auto &[Name, C] : Fields)
    Max = std::max(Max, C.refs());
  return Max;
}

TypeProfileView &ProfileData::slot(const std::string &Name) {
  for (auto &[TypeName, View] : Views)
    if (TypeName == Name)
      return View;
  Views.emplace_back(Name, TypeProfileView{});
  return Views.back().second;
}

void ProfileData::addFromSink(const obs::FieldProfileSink &Sink) {
  const reflect::TypeRegistry &Registry = Sink.registry();
  for (const obs::TypeFieldProfile *P : Sink.profiles()) {
    const TypeDesc &Desc = Registry.type(P->TypeId);
    TypeProfileView &View = slot(Desc.Name);
    View.Accesses += P->Accesses;
    for (size_t I = 0; I < Desc.Fields.size(); ++I) {
      bool Found = false;
      for (auto &[Name, C] : View.Fields)
        if (Name == Desc.Fields[I].Name) {
          C += P->Fields[I];
          Found = true;
          break;
        }
      if (!Found)
        View.Fields.emplace_back(Desc.Fields[I].Name, P->Fields[I]);
    }
  }
}

void ProfileData::addFromDoc(const obs::FieldsDoc &Doc) {
  for (const obs::FieldsTypeDoc &T : Doc.Types) {
    TypeProfileView &View = slot(T.Name);
    View.Accesses += T.Accesses;
    for (const obs::FieldsFieldDoc &F : T.Fields) {
      bool Found = false;
      for (auto &[Name, C] : View.Fields)
        if (Name == F.Name) {
          C += F.Counters;
          Found = true;
          break;
        }
      if (!Found)
        View.Fields.emplace_back(F.Name, F.Counters);
    }
  }
}

const TypeProfileView *ProfileData::forType(const std::string &Name) const {
  for (const auto &[TypeName, View] : Views)
    if (TypeName == Name)
      return &View;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Geometry helpers
//===----------------------------------------------------------------------===//

double ccl::lint::straddleFraction(uint32_t Stride, uint32_t Offset,
                                   uint32_t Size, uint32_t Line) {
  if (Stride == 0 || Size == 0 || Line == 0)
    return 0.0;
  uint32_t Phases = Line / std::gcd(Stride, Line);
  uint32_t Crossing = 0;
  for (uint32_t K = 0; K < Phases; ++K) {
    uint64_t Start = uint64_t(K) * Stride + Offset;
    uint64_t End = Start + Size - 1;
    if (Start / Line != End / Line)
      ++Crossing;
  }
  return double(Crossing) / Phases;
}

namespace {

/// A field span with its per-visit touch probability.
struct Span {
  uint32_t Offset;
  uint32_t Size;
  double P;
};

/// Expected number of distinct \p Line-byte lines touched per visit of
/// one object in a stride-packed array, averaged over all placement
/// phases: each line is touched unless every overlapping span stays
/// untouched this visit (spans are treated independently).
double expectedLines(const std::vector<Span> &Spans, uint32_t Stride,
                     uint32_t Line) {
  if (Spans.empty() || Stride == 0 || Line == 0)
    return 0.0;
  uint32_t Phases = Line / std::gcd(Stride, Line);
  double Total = 0.0;
  for (uint32_t K = 0; K < Phases; ++K) {
    uint64_t Shift = (uint64_t(K) * Stride) % Line;
    uint64_t FirstLine = Shift / Line; // == 0; kept for clarity
    uint64_t LastLine = (Shift + Stride - 1) / Line;
    for (uint64_t Li = FirstLine; Li <= LastLine; ++Li) {
      uint64_t LineLo = Li * Line;
      uint64_t LineHi = LineLo + Line;
      double NoTouch = 1.0;
      bool Overlaps = false;
      for (const Span &S : Spans) {
        uint64_t Lo = Shift + S.Offset;
        uint64_t Hi = Lo + S.Size;
        if (Lo < LineHi && Hi > LineLo) {
          Overlaps = true;
          NoTouch *= 1.0 - S.P;
        }
      }
      if (Overlaps)
        Total += 1.0 - NoTouch;
    }
  }
  return Total / Phases;
}

uint32_t roundUp(uint32_t Value, uint32_t Align) {
  return (Value + Align - 1) / Align * Align;
}

/// Lowest-fit packer: places fields in the given priority order, each at
/// the lowest aligned offset that does not overlap an earlier placement
/// (so high-priority fields get low offsets and later fields backfill
/// alignment holes). Returns new offsets parallel to \p Order and the
/// packed struct size.
struct PackResult {
  std::vector<uint32_t> Offsets;
  uint32_t Size = 0;
  uint32_t Align = 1;
};

struct PackField {
  uint32_t Size;
  uint32_t Align;
};

PackResult packFields(const std::vector<PackField> &Order) {
  PackResult Result;
  std::vector<std::pair<uint32_t, uint32_t>> Placed; // (off, end), sorted
  for (const PackField &F : Order) {
    uint32_t Align = std::max<uint32_t>(F.Align, 1);
    uint32_t Candidate = 0;
    for (size_t I = 0; I < Placed.size(); ++I) {
      // Fits entirely before interval I: every later interval starts
      // even higher, so this is the lowest aligned non-overlapping slot.
      if (Candidate + F.Size <= Placed[I].first)
        break;
      if (Candidate < Placed[I].second)
        Candidate = roundUp(Placed[I].second, Align);
    }
    Placed.emplace_back(Candidate, Candidate + F.Size);
    std::sort(Placed.begin(), Placed.end());
    Result.Offsets.push_back(Candidate);
    Result.Align = std::max(Result.Align, Align);
    Result.Size = std::max(Result.Size, Candidate + F.Size);
  }
  Result.Size = roundUp(std::max(Result.Size, 1u), Result.Align);
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-type analysis
//===----------------------------------------------------------------------===//

namespace {

bool looksLikePadding(const std::string &Name) {
  std::string Lower;
  for (char C : Name)
    Lower += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Lower.find("pad") != std::string::npos ||
         Lower.find("unused") != std::string::npos ||
         Lower.find("reserved") != std::string::npos;
}

/// Per-visit normalizer: the largest per-*element* reference count.
/// Array fields divide by element count so a 4-element scan does not
/// make every scalar field look half-cold.
uint64_t visitNorm(const TypeDesc &Desc, const TypeProfileView &View) {
  uint64_t Norm = 0;
  for (const FieldDesc &F : Desc.Fields) {
    const obs::FieldCounters *C = View.counters(F.Name);
    if (!C)
      continue;
    uint64_t Elems = std::max<uint32_t>(F.ElemCount, 1);
    Norm = std::max(Norm, C->refs() / Elems);
  }
  return Norm;
}

/// Effective per-visit footprint of a field, assuming accesses form a
/// prefix scan: refs-per-visit * average access bytes, clamped to the
/// field's size. Unprofiled (or idle) fields count in full.
uint32_t effectiveBytes(const FieldDesc &F, const obs::FieldCounters *C,
                        uint64_t Visits) {
  if (!C || Visits == 0 || C->refs() == 0 || C->BytesAccessed == 0)
    return F.Size;
  double PerVisitRefs = std::max(1.0, double(C->refs()) / double(Visits));
  double AvgBytes = double(C->BytesAccessed) / double(C->refs());
  return std::clamp<uint32_t>(uint32_t(std::lround(PerVisitRefs * AvgBytes)),
                              1, F.Size);
}

Diagnostic makeDiag(DiagKind Kind, const TypeDesc &Desc) {
  Diagnostic D;
  D.Kind = Kind;
  D.TypeName = Desc.Name;
  D.Module = Desc.Module;
  return D;
}

std::string fmt(const char *Format, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  return Buf;
}

} // namespace

void ccl::lint::analyzeType(const TypeDesc &Desc, const TypeProfileView *View,
                            const LintOptions &Options,
                            std::vector<Diagnostic> &Out) {
  const uint32_t S = Desc.Size;
  if (S == 0 || Desc.Fields.empty())
    return;
  const size_t N = Desc.Fields.size();

  bool Profiled = View && View->Accesses >= Options.MinProfileAccesses;
  uint64_t Visits = Profiled ? visitNorm(Desc, *View) : 0;
  if (Visits == 0)
    Profiled = false;

  std::vector<double> P(N, 1.0);
  std::vector<uint64_t> Refs(N, 0);
  std::vector<uint32_t> Eff(N);
  for (size_t I = 0; I < N; ++I)
    Eff[I] = Desc.Fields[I].Size;
  if (Profiled) {
    for (size_t I = 0; I < N; ++I) {
      const obs::FieldCounters *C = View->counters(Desc.Fields[I].Name);
      Refs[I] = C ? C->refs() : 0;
      P[I] = std::min(1.0, double(Refs[I]) / double(Visits));
      Eff[I] = effectiveBytes(Desc.Fields[I], C, Visits);
    }
  }

  //===------------------------------------------------------------===//
  // Padding holes + tail padding
  //===------------------------------------------------------------===//
  double PadFrac = double(Desc.paddingBytes()) / S;
  bool PadError = PadFrac > Options.MaxPaddingFrac;
  uint32_t PrevEnd = 0;
  for (size_t I = 0; I < N; ++I) {
    const FieldDesc &F = Desc.Fields[I];
    if (F.Offset > PrevEnd) {
      Diagnostic D = makeDiag(DiagKind::PaddingHole, Desc);
      D.Field = F.Name;
      D.WastedBytes = F.Offset - PrevEnd;
      D.Fraction = double(D.WastedBytes) / S;
      D.Severity = D.Fraction;
      D.Error = PadError;
      D.Message = fmt("%u-byte alignment hole before '%s' (offset %u); "
                      "%.1f%% of the struct is padding",
                      D.WastedBytes, F.Name.c_str(), F.Offset, PadFrac * 100);
      Out.push_back(std::move(D));
    }
    PrevEnd = std::max(PrevEnd, F.end());
  }
  if (S > PrevEnd) {
    Diagnostic D = makeDiag(DiagKind::TailPadding, Desc);
    D.WastedBytes = S - PrevEnd;
    D.Fraction = double(D.WastedBytes) / S;
    D.Severity = D.Fraction * 0.9; // slightly below holes: often required
    D.Error = PadError;
    D.Message = fmt("%u bytes of tail padding (fields end at %u, sizeof is "
                    "%u); %.1f%% of the struct is padding",
                    D.WastedBytes, PrevEnd, S, PadFrac * 100);
    Out.push_back(std::move(D));
  }

  //===------------------------------------------------------------===//
  // Cache-line straddling at each preset line size
  //===------------------------------------------------------------===//
  for (uint32_t Line : Options.LineSizes) {
    // Whole-object straddling is only actionable for objects that could
    // fit within one line (larger objects always cross; per-field diags
    // cover their hot spots).
    double ObjFrac = S <= Line ? straddleFraction(S, 0, S, Line) : 0.0;
    if (ObjFrac > 0.0) {
      Diagnostic D = makeDiag(DiagKind::LineStraddle, Desc);
      D.LineSize = Line;
      D.Fraction = ObjFrac;
      D.Severity = ObjFrac;
      D.Error = ObjFrac > Options.MaxStraddleFrac;
      D.Message =
          fmt("%.0f%% of stride-packed objects straddle a %u-byte line "
              "(sizeof %u)",
              ObjFrac * 100, Line, S);
      Out.push_back(std::move(D));
    }
    for (size_t I = 0; I < N; ++I) {
      const FieldDesc &F = Desc.Fields[I];
      if (F.Size == 0 || F.Size > Line || P[I] < 0.5)
        continue;
      double FieldFrac = straddleFraction(S, F.Offset, F.Size, Line);
      if (FieldFrac < 0.25)
        continue;
      Diagnostic D = makeDiag(DiagKind::LineStraddle, Desc);
      D.Field = F.Name;
      D.LineSize = Line;
      D.Fraction = FieldFrac;
      D.Severity = FieldFrac * 0.5 * P[I];
      D.Message = fmt("hot field '%s' [%u,%u) straddles a %u-byte line in "
                      "%.0f%% of placements",
                      F.Name.c_str(), F.Offset, F.end(), Line,
                      FieldFrac * 100);
      Out.push_back(std::move(D));
    }
  }

  //===------------------------------------------------------------===//
  // Dead-field bloat
  //===------------------------------------------------------------===//
  for (size_t I = 0; I < N; ++I) {
    const FieldDesc &F = Desc.Fields[I];
    if (Profiled && Refs[I] == 0) {
      Diagnostic D = makeDiag(DiagKind::DeadField, Desc);
      D.Field = F.Name;
      D.WastedBytes = F.Size;
      D.Fraction = double(F.Size) / S;
      D.Severity = D.Fraction + 0.01;
      D.Error = Options.FailOnDeadField;
      D.Message = fmt("field '%s' (%u B, %.1f%% of the struct) has zero "
                      "references in a %" PRIu64 "-access profile",
                      F.Name.c_str(), F.Size, D.Fraction * 100,
                      View->Accesses);
      Out.push_back(std::move(D));
    } else if (!Profiled && looksLikePadding(F.Name)) {
      Diagnostic D = makeDiag(DiagKind::DeadField, Desc);
      D.Field = F.Name;
      D.WastedBytes = F.Size;
      D.Fraction = double(F.Size) / S;
      D.Severity = D.Fraction * 0.8;
      D.Message = fmt("field '%s' (%u B) looks like explicit padding; "
                      "confirm with a field profile (--fields)",
                      F.Name.c_str(), F.Size);
      Out.push_back(std::move(D));
    }
  }

  //===------------------------------------------------------------===//
  // Hot/cold split candidate (profile required)
  //===------------------------------------------------------------===//
  const uint32_t ModelLine = Options.LineSizes.front();
  const uint32_t TransferLine = Options.LineSizes.back();

  std::vector<Span> BeforeSpans;
  for (size_t I = 0; I < N; ++I)
    BeforeSpans.push_back({Desc.Fields[I].Offset, Eff[I], P[I]});
  double LinesBefore = expectedLines(BeforeSpans, S, ModelLine);
  double UsefulBytes = 0.0;
  for (size_t I = 0; I < N; ++I)
    UsefulBytes += P[I] * Eff[I];

  if (Profiled) {
    std::vector<size_t> Hot, Cold;
    for (size_t I = 0; I < N; ++I)
      (P[I] >= Options.ColdRefFrac ? Hot : Cold).push_back(I);
    uint32_t HotBytes = 0, ColdBytes = 0;
    for (size_t I : Hot)
      HotBytes += Desc.Fields[I].Size;
    for (size_t I : Cold)
      ColdBytes += Desc.Fields[I].Size;

    if (!Hot.empty() && !Cold.empty() && ColdBytes >= 8) {
      bool NeedsPtr = false;
      double PAnyCold = 1.0;
      for (size_t I : Cold) {
        if (Refs[I] != 0)
          NeedsPtr = true;
        PAnyCold *= 1.0 - P[I];
      }
      PAnyCold = 1.0 - PAnyCold;

      // Hot structure: hottest first; a trailing cold-indirection
      // pointer when any cold field is still referenced.
      std::vector<size_t> HotOrder = Hot;
      std::stable_sort(HotOrder.begin(), HotOrder.end(),
                       [&](size_t A, size_t B) { return Refs[A] > Refs[B]; });
      std::vector<PackField> HotPack;
      for (size_t I : HotOrder)
        HotPack.push_back(
            {Desc.Fields[I].Size, Desc.Fields[I].Align});
      if (NeedsPtr)
        HotPack.push_back({8, 8});
      PackResult HotLayout = packFields(HotPack);

      std::vector<size_t> ColdOrder = Cold;
      std::stable_sort(ColdOrder.begin(), ColdOrder.end(),
                       [&](size_t A, size_t B) {
                         if (Desc.Fields[A].Align != Desc.Fields[B].Align)
                           return Desc.Fields[A].Align > Desc.Fields[B].Align;
                         return Desc.Fields[A].Size > Desc.Fields[B].Size;
                       });
      std::vector<PackField> ColdPack;
      for (size_t I : ColdOrder)
        ColdPack.push_back(
            {Desc.Fields[I].Size, Desc.Fields[I].Align});
      PackResult ColdLayout = packFields(ColdPack);

      LayoutPlan Plan;
      Plan.NewSize = HotLayout.Size;
      Plan.NewAlign = HotLayout.Align;
      Plan.ColdSize = ColdLayout.Size;
      Plan.AddsColdPointer = NeedsPtr;
      Plan.ModelLine = TransferLine;
      Plan.StaticDensityBefore = double(TransferLine) * HotBytes / S;
      Plan.StaticDensityAfter =
          double(TransferLine) * HotBytes / HotLayout.Size;

      std::vector<Span> HotSpans;
      for (size_t J = 0; J < HotOrder.size(); ++J) {
        size_t I = HotOrder[J];
        Plan.Fields.push_back({Desc.Fields[I].Name, Desc.Fields[I].Offset,
                               HotLayout.Offsets[J], Desc.Fields[I].Size,
                               true, false, false});
        HotSpans.push_back({HotLayout.Offsets[J], Eff[I], P[I]});
      }
      if (NeedsPtr) {
        uint32_t PtrOff = HotLayout.Offsets[HotOrder.size()];
        Plan.Fields.push_back({"<cold*>", 0, PtrOff, 8, true, true, false});
        HotSpans.push_back({PtrOff, 8, PAnyCold});
      }
      std::vector<Span> ColdSpans;
      for (size_t J = 0; J < ColdOrder.size(); ++J) {
        size_t I = ColdOrder[J];
        Plan.Fields.push_back({Desc.Fields[I].Name, Desc.Fields[I].Offset,
                               ColdLayout.Offsets[J], Desc.Fields[I].Size,
                               false, false, true});
        ColdSpans.push_back({ColdLayout.Offsets[J], Eff[I], P[I]});
      }

      Plan.ExpectedLinesBefore = expectedLines(BeforeSpans, S, ModelLine);
      Plan.ExpectedLinesAfter =
          expectedLines(HotSpans, Plan.NewSize, ModelLine) +
          (PAnyCold > 0.0
               ? expectedLines(ColdSpans, Plan.ColdSize, ModelLine)
               : 0.0);
      Plan.HotBytesPerLineBefore =
          Plan.ExpectedLinesBefore > 0
              ? UsefulBytes / Plan.ExpectedLinesBefore
              : 0.0;
      Plan.HotBytesPerLineAfter =
          Plan.ExpectedLinesAfter > 0 ? UsefulBytes / Plan.ExpectedLinesAfter
                                      : 0.0;
      Plan.PredictedGain = Plan.StaticDensityBefore > 0
                               ? Plan.StaticDensityAfter /
                                     Plan.StaticDensityBefore
                               : 1.0;

      if (Plan.PredictedGain >= Options.MinPlanGain) {
        Diagnostic D = makeDiag(DiagKind::HotColdSplit, Desc);
        D.WastedBytes = ColdBytes;
        D.Fraction = double(ColdBytes) / S;
        D.Severity = std::min(3.0, Plan.PredictedGain - 1.0) + 0.1;
        D.Error = Options.FailOnPlanGain > 0 &&
                  Plan.PredictedGain >= Options.FailOnPlanGain;
        D.Message = fmt(
            "split %u hot B from %u cold B: hot struct shrinks %u -> %u B, "
            "hot bytes per %u-byte line %.1f -> %.1f (%.2fx)%s",
            HotBytes, ColdBytes, S, Plan.NewSize, TransferLine,
            Plan.StaticDensityBefore, Plan.StaticDensityAfter,
            Plan.PredictedGain,
            NeedsPtr ? "; adds an 8-byte cold pointer" : "");
        D.HasPlan = true;
        D.Plan = std::move(Plan);
        Out.push_back(std::move(D));
      }
    }
  }

  //===------------------------------------------------------------===//
  // Field-reorder plan
  //===------------------------------------------------------------===//
  {
    std::vector<size_t> Order(N);
    std::iota(Order.begin(), Order.end(), 0);
    if (Profiled)
      std::stable_sort(Order.begin(), Order.end(),
                       [&](size_t A, size_t B) { return Refs[A] > Refs[B]; });
    else
      std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
        if (Desc.Fields[A].Align != Desc.Fields[B].Align)
          return Desc.Fields[A].Align > Desc.Fields[B].Align;
        return Desc.Fields[A].Size > Desc.Fields[B].Size;
      });
    std::vector<PackField> Pack;
    for (size_t I : Order)
      Pack.push_back({Desc.Fields[I].Size, Desc.Fields[I].Align});
    PackResult Layout = packFields(Pack);

    bool Identical = Layout.Size == S;
    std::vector<Span> AfterSpans;
    for (size_t J = 0; J < N; ++J) {
      size_t I = Order[J];
      if (Layout.Offsets[J] != Desc.Fields[I].Offset)
        Identical = false;
      AfterSpans.push_back({Layout.Offsets[J], Eff[I], P[I]});
    }

    if (!Identical) {
      double LinesAfter = expectedLines(AfterSpans, Layout.Size, ModelLine);
      double Gain = LinesAfter > 0 ? LinesBefore / LinesAfter : 1.0;
      if (Gain >= Options.MinPlanGain || Layout.Size < S) {
        LayoutPlan Plan;
        Plan.NewSize = Layout.Size;
        Plan.NewAlign = Layout.Align;
        Plan.ModelLine = ModelLine;
        Plan.ExpectedLinesBefore = LinesBefore;
        Plan.ExpectedLinesAfter = LinesAfter;
        Plan.HotBytesPerLineBefore =
            LinesBefore > 0 ? UsefulBytes / LinesBefore : 0.0;
        Plan.HotBytesPerLineAfter =
            LinesAfter > 0 ? UsefulBytes / LinesAfter : 0.0;
        Plan.PredictedGain = Gain;
        for (size_t J = 0; J < N; ++J) {
          size_t I = Order[J];
          Plan.Fields.push_back({Desc.Fields[I].Name, Desc.Fields[I].Offset,
                                 Layout.Offsets[J], Desc.Fields[I].Size,
                                 P[I] >= Options.ColdRefFrac, false, false});
        }
        std::stable_sort(Plan.Fields.begin(), Plan.Fields.end(),
                         [](const FieldPlanEntry &A, const FieldPlanEntry &B) {
                           return A.NewOffset < B.NewOffset;
                         });

        Diagnostic D = makeDiag(DiagKind::FieldReorder, Desc);
        D.WastedBytes = S > Layout.Size ? S - Layout.Size : 0;
        D.Fraction = Gain - 1.0;
        D.Severity = std::min(3.0, (Gain - 1.0) * 2.0) +
                     (Layout.Size < S ? 0.2 : 0.0);
        D.Error = Options.FailOnPlanGain > 0 &&
                  Gain >= Options.FailOnPlanGain;
        D.Message = fmt(
            "reorder %s: expected %u-byte lines/visit %.2f -> %.2f "
            "(%.2fx), hot bytes per touched line %.1f -> %.1f%s",
            Profiled ? "by profile hotness" : "by alignment", ModelLine,
            LinesBefore, LinesAfter, Gain,
            Plan.HotBytesPerLineBefore, Plan.HotBytesPerLineAfter,
            Layout.Size < S
                ? fmt(", sizeof %u -> %u B", S, Layout.Size).c_str()
                : "");
        D.HasPlan = true;
        D.Plan = std::move(Plan);
        Out.push_back(std::move(D));
      }
    }
  }
}

LintReport ccl::lint::analyze(const reflect::TypeRegistry &Registry,
                              const ProfileData *Profile,
                              const LintOptions &Options) {
  LintReport Report;
  for (const TypeDesc *Desc : Registry.all()) {
    const TypeProfileView *View =
        Profile ? Profile->forType(Desc->Name) : nullptr;
    ++Report.TypesAnalyzed;
    if (View && View->Accesses >= Options.MinProfileAccesses)
      ++Report.TypesProfiled;
    analyzeType(*Desc, View, Options, Report.Diags);
  }
  std::stable_sort(Report.Diags.begin(), Report.Diags.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     if (A.Error != B.Error)
                       return A.Error;
                     return A.Severity > B.Severity;
                   });
  for (const Diagnostic &D : Report.Diags)
    if (D.Error)
      ++Report.Errors;
  return Report;
}

//===----------------------------------------------------------------------===//
// Plan confirmation by re-simulation
//===----------------------------------------------------------------------===//

namespace {

struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 17;
  }
  double uniform() { return double(next() & 0xFFFFFF) / double(1 << 24); }
};

} // namespace

PlanConfirmation ccl::lint::confirmPlan(const TypeDesc &Desc,
                                        const TypeProfileView *View,
                                        const LayoutPlan &Plan,
                                        const sim::HierarchyConfig &Config,
                                        uint64_t Objects, uint64_t Visits) {
  PlanConfirmation Result;
  Result.PredictedGain = Plan.PredictedGain;
  const uint32_t S = Desc.Size;
  if (S == 0 || Plan.NewSize == 0)
    return Result;

  bool UseL1 = Plan.ModelLine <= Config.L1.BlockBytes;
  uint64_t TargetCap =
      UseL1 ? Config.L1.CapacityBytes : Config.L2.CapacityBytes;
  if (Objects == 0) {
    // Splits are a *capacity* optimization: size the object count so the
    // suggested hot array just fits the target cache while the original
    // layout overflows it. Reorders are a *per-visit line* optimization:
    // thrash both layouts so misses track lines touched.
    if (Plan.ColdSize > 0 && Plan.NewSize < S)
      Objects = std::clamp<uint64_t>(TargetCap / Plan.NewSize, 4096,
                                     1u << 20);
    else
      Objects = std::clamp<uint64_t>(8 * TargetCap / Plan.NewSize, 4096,
                                     1u << 20);
  }
  if (Visits == 0)
    Visits = 4 * Objects;
  uint64_t Warmup = 2 * Objects;
  Result.Objects = Objects;
  Result.Visits = Visits;

  // Per-field visit probabilities and per-visit footprints, matching
  // the analysis model's assumptions (visitNorm / effectiveBytes).
  const size_t N = Desc.Fields.size();
  uint64_t VisitNorm = View ? visitNorm(Desc, *View) : 0;
  std::vector<double> P(N, 1.0);
  std::vector<uint32_t> AccessBytes(N);
  for (size_t I = 0; I < N; ++I) {
    const FieldDesc &F = Desc.Fields[I];
    AccessBytes[I] = std::min<uint32_t>(F.Size, 8);
    if (View && VisitNorm != 0) {
      const obs::FieldCounters *C = View->counters(F.Name);
      uint64_t R = C ? C->refs() : 0;
      P[I] = std::min(1.0, double(R) / double(VisitNorm));
      if (C && R > 0 && C->BytesAccessed > 0)
        AccessBytes[I] = effectiveBytes(F, C, VisitNorm);
    }
  }

  // Map reflected fields to plan entries (by name); the synthetic cold
  // pointer has no source field.
  std::vector<const FieldPlanEntry *> Entry(N, nullptr);
  const FieldPlanEntry *ColdPtr = nullptr;
  for (const FieldPlanEntry &E : Plan.Fields) {
    if (E.IsColdPtr) {
      ColdPtr = &E;
      continue;
    }
    for (size_t I = 0; I < N; ++I)
      if (Desc.Fields[I].Name == E.Name)
        Entry[I] = &E;
  }

  const uint64_t BeforeBase = uint64_t(1) << 22;
  const uint64_t AfterBase = uint64_t(1) << 22;
  // Cold array lives far from the hot array (own pages, no line sharing).
  const uint64_t ColdBase =
      AfterBase + ((Objects * Plan.NewSize + (uint64_t(1) << 21)) &
                   ~uint64_t(4095));

  sim::MemoryHierarchy Before(Config), After(Config);
  Lcg Rng(0x5eedcc1u);

  auto RunVisit = [&](uint64_t Obj) {
    uint64_t BeforeObj = BeforeBase + Obj * S;
    uint64_t AfterObj = AfterBase + Obj * Plan.NewSize;
    uint64_t ColdObj = ColdBase + Obj * std::max<uint32_t>(Plan.ColdSize, 1);
    bool PtrCharged = false;
    for (size_t I = 0; I < N; ++I) {
      if (P[I] < 1.0 && Rng.uniform() >= P[I])
        continue;
      const FieldDesc &F = Desc.Fields[I];
      Before.read(BeforeObj + F.Offset, AccessBytes[I]);
      const FieldPlanEntry *E = Entry[I];
      if (!E) {
        // Field absent from the plan (should not happen): keep parity.
        After.read(AfterObj + F.Offset, AccessBytes[I]);
        continue;
      }
      if (E->InColdStruct) {
        if (ColdPtr && !PtrCharged) {
          After.read(AfterObj + ColdPtr->NewOffset, 8);
          PtrCharged = true;
        }
        After.read(ColdObj + E->NewOffset, AccessBytes[I]);
      } else {
        After.read(AfterObj + E->NewOffset, AccessBytes[I]);
      }
    }
  };

  for (uint64_t V = 0; V < Warmup; ++V)
    RunVisit(Rng.next() % Objects);
  sim::SimStats SnapBefore = Before.stats();
  sim::SimStats SnapAfter = After.stats();
  for (uint64_t V = 0; V < Visits; ++V)
    RunVisit(Rng.next() % Objects);

  auto Misses = [&](const sim::SimStats &Now, const sim::SimStats &Snap) {
    return UseL1 ? Now.L1Misses - Snap.L1Misses
                 : Now.L2Misses - Snap.L2Misses;
  };
  Result.MissesPerVisitBefore =
      double(Misses(Before.stats(), SnapBefore)) / Visits;
  Result.MissesPerVisitAfter =
      double(Misses(After.stats(), SnapAfter)) / Visits;
  Result.MeasuredGain =
      Result.MissesPerVisitAfter > 0
          ? Result.MissesPerVisitBefore / Result.MissesPerVisitAfter
          : (Result.MissesPerVisitBefore > 0 ? 1e9 : 1.0);
  Result.Confirmed =
      Result.PredictedGain > 1.0 &&
      Result.MeasuredGain >= 1.0 + 0.3 * (Result.PredictedGain - 1.0);
  return Result;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

void renderPlanText(const LayoutPlan &Plan, std::FILE *Out) {
  if (Plan.ColdSize > 0)
    std::fprintf(Out,
                 "      plan: hot %u B (align %u), cold %u B%s\n",
                 Plan.NewSize, Plan.NewAlign, Plan.ColdSize,
                 Plan.AddsColdPointer ? ", via cold pointer" : "");
  else
    std::fprintf(Out, "      plan: %u B (align %u)\n", Plan.NewSize,
                 Plan.NewAlign);
  for (const FieldPlanEntry &F : Plan.Fields) {
    if (F.IsColdPtr) {
      std::fprintf(Out, "        %-16s           -> hot @%-3u (new)\n",
                   F.Name.c_str(), F.NewOffset);
      continue;
    }
    std::fprintf(Out, "        %-16s @%-3u -> %s @%-3u (%u B)\n",
                 F.Name.c_str(), F.OldOffset,
                 F.InColdStruct ? "cold" : (F.Hot ? "hot " : "    "),
                 F.NewOffset, F.Size);
  }
  if (Plan.ExpectedLinesBefore > 0)
    std::fprintf(Out,
                 "      model: %u-byte lines/visit %.2f -> %.2f, hot "
                 "bytes/line %.1f -> %.1f (%.2fx)\n",
                 Plan.ModelLine, Plan.ExpectedLinesBefore,
                 Plan.ExpectedLinesAfter, Plan.HotBytesPerLineBefore,
                 Plan.HotBytesPerLineAfter, Plan.PredictedGain);
}

} // namespace

void ccl::lint::renderText(const LintReport &Report, std::FILE *Out) {
  std::fprintf(Out,
               "ccl-lint: %zu types analyzed (%zu profiled), %zu "
               "diagnostics, %zu errors\n",
               Report.TypesAnalyzed, Report.TypesProfiled,
               Report.Diags.size(), Report.Errors);
  size_t Rank = 0;
  for (const Diagnostic &D : Report.Diags) {
    std::fprintf(Out, "%3zu. [%s] %-14s %s::%s%s%s\n", ++Rank,
                 D.Error ? "ERROR" : " warn", diagKindName(D.Kind),
                 D.Module.c_str(), D.TypeName.c_str(),
                 D.Field.empty() ? "" : ".", D.Field.c_str());
    std::fprintf(Out, "      %s\n", D.Message.c_str());
    if (D.HasPlan)
      renderPlanText(D.Plan, Out);
  }
}

void ccl::lint::renderJson(const LintReport &Report, std::FILE *Out) {
  using obs::jsonEscape;
  std::fprintf(Out, "{");
  obs::writeMeta(Out, "ccl-lint-v1");
  std::fprintf(Out,
               ",\"types_analyzed\":%zu,\"types_profiled\":%zu,"
               "\"errors\":%zu,\"diags\":[",
               Report.TypesAnalyzed, Report.TypesProfiled, Report.Errors);
  bool FirstDiag = true;
  for (const Diagnostic &D : Report.Diags) {
    std::fprintf(Out, "%s\n {\"kind\":\"%s\",\"type\":\"%s\","
                      "\"module\":\"%s\",\"field\":\"%s\","
                      "\"error\":%s,\"severity\":%.4f,\"line\":%u,"
                      "\"wasted_bytes\":%u,\"fraction\":%.4f,"
                      "\"message\":\"%s\"",
                 FirstDiag ? "" : ",", diagKindName(D.Kind),
                 jsonEscape(D.TypeName).c_str(),
                 jsonEscape(D.Module).c_str(), jsonEscape(D.Field).c_str(),
                 D.Error ? "true" : "false", D.Severity, D.LineSize,
                 D.WastedBytes, D.Fraction, jsonEscape(D.Message).c_str());
    FirstDiag = false;
    if (D.HasPlan) {
      const LayoutPlan &P = D.Plan;
      std::fprintf(Out,
                   ",\"plan\":{\"new_size\":%u,\"new_align\":%u,"
                   "\"cold_size\":%u,\"adds_cold_ptr\":%s,"
                   "\"model_line\":%u,\"lines_before\":%.4f,"
                   "\"lines_after\":%.4f,\"hot_bytes_per_line_before\":%.4f,"
                   "\"hot_bytes_per_line_after\":%.4f,"
                   "\"static_density_before\":%.4f,"
                   "\"static_density_after\":%.4f,"
                   "\"predicted_gain\":%.4f,\"fields\":[",
                   P.NewSize, P.NewAlign, P.ColdSize,
                   P.AddsColdPointer ? "true" : "false", P.ModelLine,
                   P.ExpectedLinesBefore, P.ExpectedLinesAfter,
                   P.HotBytesPerLineBefore, P.HotBytesPerLineAfter,
                   P.StaticDensityBefore, P.StaticDensityAfter,
                   P.PredictedGain);
      bool FirstField = true;
      for (const FieldPlanEntry &F : P.Fields) {
        std::fprintf(Out,
                     "%s{\"name\":\"%s\",\"old_off\":%u,\"new_off\":%u,"
                     "\"size\":%u,\"hot\":%s,\"cold_ptr\":%s,"
                     "\"in_cold\":%s}",
                     FirstField ? "" : ",", jsonEscape(F.Name).c_str(),
                     F.OldOffset, F.NewOffset, F.Size,
                     F.Hot ? "true" : "false", F.IsColdPtr ? "true" : "false",
                     F.InColdStruct ? "true" : "false");
        FirstField = false;
      }
      std::fprintf(Out, "]}");
    }
    std::fprintf(Out, "}");
  }
  std::fprintf(Out, "]}\n");
}
