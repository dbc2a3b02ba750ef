//===- obs/Attribution.cpp - Per-structure cache profiling ----------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Attribution.h"

#include "support/TablePrinter.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace ccl;
using namespace ccl::obs;

RegionProfile &RegionProfile::operator+=(const RegionProfile &Other) {
  Reads += Other.Reads;
  Writes += Other.Writes;
  L1Hits += Other.L1Hits;
  L1Misses += Other.L1Misses;
  L2Hits += Other.L2Hits;
  L2Misses += Other.L2Misses;
  TlbMisses += Other.TlbMisses;
  PrefetchFullHits += Other.PrefetchFullHits;
  PrefetchPartialHits += Other.PrefetchPartialHits;
  Cycles += Other.Cycles;
  BytesAccessed += Other.BytesAccessed;
  BlocksFetched += Other.BlocksFetched;
  BytesFetched += Other.BytesFetched;
  BytesUsed += Other.BytesUsed;
  BlocksEvicted += Other.BlocksEvicted;
  Writebacks += Other.Writebacks;
  return *this;
}

AttributionSink::AttributionSink(const RegionRegistry &Registry,
                                 const AttributionConfig &Config)
    : Registry(&Registry), Config(Config),
      L1SetMisses(Config.L1Sets, 0), L2SetMisses(Config.L2Sets, 0),
      L2SetEvictions(Config.L2Sets, 0) {
  assert(Config.L2BlockBytes <= 128 &&
         "touched bitmap supports blocks up to 128 bytes");
  PerRegion.resize(Registry.regionCount());
}

void AttributionSink::markTouched(Residency &R, uint32_t Offset,
                                  uint32_t Size) {
  // Set bits [Offset, Offset + Size) in the 128-bit byte bitmap. An
  // access event never crosses an L1 (hence L2) block boundary.
  for (uint32_t I = Offset; I < Offset + Size; ++I)
    R.Touched[I >> 6] |= 1ULL << (I & 63);
}

void AttributionSink::onAccess(const AccessEvent &Event) {
  uint32_t Region = Registry->resolve(Event.VAddr);
  ensureRegion(Region);
  ++AccessEventCount;
  RegionProfile &P = PerRegion[Region];
  if (Event.IsWrite)
    ++P.Writes;
  else
    ++P.Reads;
  P.Cycles += Event.Cycles;
  P.BytesAccessed += Event.Size;
  if (Event.TlbMiss)
    ++P.TlbMisses;

  uint64_t L2Block = Event.Mapped / Config.L2BlockBytes;
  if (Event.Level == AccessLevel::L1Hit) {
    ++P.L1Hits;
  } else {
    ++P.L1Misses;
    ++L1SetMisses[(Event.Mapped / Config.L1BlockBytes) % Config.L1Sets];
    if (Event.Level == AccessLevel::L2Hit) {
      ++P.L2Hits;
    } else {
      // Memory / prefetch-full / prefetch-partial: an L2 fill happened.
      // (Prefetch-full is counted as an L2 hit by SimStats but still
      // installs a fresh block, so it starts a residency here too.)
      if (Event.Level == AccessLevel::PrefetchFull) {
        ++P.L2Hits;
        ++P.PrefetchFullHits;
      } else {
        ++P.L2Misses;
        if (Event.Level == AccessLevel::PrefetchPartial)
          ++P.PrefetchPartialHits;
      }
      ++L2SetMisses[L2Block % Config.L2Sets];
      Resident[L2Block] = Residency{Region, {0, 0}};
    }
  }

  auto It = Resident.find(L2Block);
  if (It != Resident.end())
    markTouched(It->second, uint32_t(Event.Mapped % Config.L2BlockBytes),
                Event.Size);
}

void AttributionSink::closeResidency(uint64_t Block, const Residency &R,
                                     bool Evicted, bool Writeback) {
  (void)Block;
  ensureRegion(R.Region);
  RegionProfile &P = PerRegion[R.Region];
  ++P.BlocksFetched;
  P.BytesFetched += Config.L2BlockBytes;
  P.BytesUsed += uint64_t(std::popcount(R.Touched[0])) +
                 uint64_t(std::popcount(R.Touched[1]));
  if (Evicted)
    ++P.BlocksEvicted;
  if (Writeback)
    ++P.Writebacks;
}

void AttributionSink::onEvict(const EvictEvent &Event) {
  uint64_t Block = Event.MappedBlockAddr / Config.L2BlockBytes;
  ++L2SetEvictions[Block % Config.L2Sets];
  auto It = Resident.find(Block);
  if (It == Resident.end())
    return; // The fill predates this sink.
  closeResidency(Block, It->second, /*Evicted=*/true, Event.Writeback);
  Resident.erase(It);
}

void AttributionSink::finalize() {
  for (const auto &[Block, R] : Resident)
    closeResidency(Block, R, /*Evicted=*/false, /*Writeback=*/false);
  Resident.clear();
}

RegionProfile AttributionSink::totals() const {
  RegionProfile Total;
  for (const RegionProfile &P : PerRegion)
    Total += P;
  return Total;
}

namespace {

std::string regionLabel(const RegionInfo &Info) {
  if (Info.ColorClass.empty())
    return Info.Name;
  return Info.Name + " [" + Info.ColorClass + "]";
}

} // namespace

void AttributionSink::printReport(std::FILE *Out) const {
  RegionProfile Total = totals();
  double TotalCycles = std::max<double>(1.0, double(Total.Cycles));

  std::fprintf(Out, "Per-structure cache profile (%llu accesses):\n",
               (unsigned long long)Total.references());
  TablePrinter Table({"region", "refs", "L1 miss%", "L2 miss%", "TLB miss",
                      "cycles", "cyc%", "blocks", "block util%"});
  // Most expensive regions first.
  std::vector<uint32_t> Order;
  for (uint32_t Id = 0; Id < PerRegion.size(); ++Id)
    if (PerRegion[Id].references() || PerRegion[Id].BlocksFetched)
      Order.push_back(Id);
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return PerRegion[A].Cycles > PerRegion[B].Cycles ||
           (PerRegion[A].Cycles == PerRegion[B].Cycles && A < B);
  });
  for (uint32_t Id : Order) {
    const RegionProfile &P = PerRegion[Id];
    Table.addRow({regionLabel(Registry->info(Id)),
                  TablePrinter::fmtInt(P.references()),
                  TablePrinter::fmt(100.0 * P.l1MissRate(), 1),
                  TablePrinter::fmt(100.0 * P.l2MissRate(), 1),
                  TablePrinter::fmtInt(P.TlbMisses),
                  TablePrinter::fmtInt(P.Cycles),
                  TablePrinter::fmt(100.0 * double(P.Cycles) / TotalCycles,
                                    1),
                  TablePrinter::fmtInt(P.BlocksFetched),
                  TablePrinter::fmt(100.0 * P.blockUtilization(), 1)});
  }
  Table.addSeparator();
  Table.addRow({"(total)", TablePrinter::fmtInt(Total.references()),
                TablePrinter::fmt(100.0 * Total.l1MissRate(), 1),
                TablePrinter::fmt(100.0 * Total.l2MissRate(), 1),
                TablePrinter::fmtInt(Total.TlbMisses),
                TablePrinter::fmtInt(Total.Cycles), "100.0",
                TablePrinter::fmtInt(Total.BlocksFetched),
                TablePrinter::fmt(100.0 * Total.blockUtilization(), 1)});
  Table.print(Out);

  // L2 set-conflict histogram: distribution of misses over sets, split
  // into the colored hot region vs the rest when coloring is in play.
  uint64_t NonZero = 0, MaxMisses = 0, TotalMisses = 0;
  uint64_t HotMisses = 0, HotEvictions = 0;
  for (uint64_t Set = 0; Set < L2SetMisses.size(); ++Set) {
    uint64_t M = L2SetMisses[Set];
    TotalMisses += M;
    NonZero += M != 0;
    MaxMisses = std::max(MaxMisses, M);
    if (Set < Config.HotSets) {
      HotMisses += M;
      HotEvictions += L2SetEvictions[Set];
    }
  }
  std::fprintf(Out,
               "\nL2 set conflicts: %llu misses over %llu/%llu sets "
               "(max %llu per set, mean %.1f over touched sets)\n",
               (unsigned long long)TotalMisses, (unsigned long long)NonZero,
               (unsigned long long)L2SetMisses.size(),
               (unsigned long long)MaxMisses,
               NonZero ? double(TotalMisses) / double(NonZero) : 0.0);
  if (Config.HotSets > 0)
    std::fprintf(Out,
                 "  hot sets [0, %llu): %llu misses, %llu evictions "
                 "(coloring keeps these near zero after warmup)\n",
                 (unsigned long long)Config.HotSets,
                 (unsigned long long)HotMisses,
                 (unsigned long long)HotEvictions);

  // Power-of-two histogram of per-set miss counts.
  uint64_t Buckets[17] = {0};
  for (uint64_t M : L2SetMisses) {
    if (M == 0)
      continue;
    unsigned B = std::min<unsigned>(16, unsigned(std::bit_width(M) - 1));
    ++Buckets[B];
  }
  TablePrinter Hist({"misses/set", "sets"});
  for (unsigned B = 0; B <= 16; ++B) {
    if (!Buckets[B])
      continue;
    uint64_t Lo = 1ULL << B;
    uint64_t Hi = (2ULL << B) - 1;
    std::string Range = B == 16 ? (TablePrinter::fmtInt(Lo) + "+")
                                : (TablePrinter::fmtInt(Lo) + "-" +
                                   TablePrinter::fmtInt(Hi));
    Hist.addRow({Range, TablePrinter::fmtInt(Buckets[B])});
  }
  Hist.print(Out);

  // The most conflicted sets, with their hot/cold classification.
  std::vector<uint64_t> Top(L2SetMisses.size());
  for (uint64_t Set = 0; Set < Top.size(); ++Set)
    Top[Set] = Set;
  std::partial_sort(Top.begin(), Top.begin() + std::min<size_t>(8, Top.size()),
                    Top.end(), [&](uint64_t A, uint64_t B) {
                      return L2SetMisses[A] > L2SetMisses[B] ||
                             (L2SetMisses[A] == L2SetMisses[B] && A < B);
                    });
  std::fprintf(Out, "hottest L2 sets:");
  for (size_t I = 0; I < std::min<size_t>(8, Top.size()); ++I) {
    if (L2SetMisses[Top[I]] == 0)
      break;
    std::fprintf(Out, " %llu:%llu%s", (unsigned long long)Top[I],
                 (unsigned long long)L2SetMisses[Top[I]],
                 Config.HotSets && Top[I] < Config.HotSets ? "(hot)" : "");
  }
  std::fprintf(Out, "\n");
}
