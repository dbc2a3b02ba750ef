//===- support/TablePrinter.cpp - Fixed-width text tables -----------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "support/TablePrinter.h"

#include <algorithm>
#include <cinttypes>

using namespace ccl;

TablePrinter::TablePrinter(std::vector<std::string> Header)
    : Header(std::move(Header)) {}

void TablePrinter::addRow(std::vector<std::string> Row) {
  Rows.push_back(std::move(Row));
}

void TablePrinter::addSeparator() { Rows.push_back({SeparatorTag}); }

void TablePrinter::print(std::FILE *Out) const {
  std::vector<size_t> Widths(Header.size());
  for (size_t I = 0; I < Header.size(); ++I)
    Widths[I] = Header[I].size();
  for (const auto &Row : Rows) {
    if (!Row.empty() && Row[0] == SeparatorTag)
      continue;
    for (size_t I = 0; I < Row.size() && I < Widths.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());
  }

  auto printLine = [&] {
    for (size_t W : Widths) {
      std::fputc('+', Out);
      for (size_t I = 0; I < W + 2; ++I)
        std::fputc('-', Out);
    }
    std::fputs("+\n", Out);
  };
  auto printRow = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I < Widths.size(); ++I) {
      const std::string &Cell = I < Row.size() ? Row[I] : std::string();
      std::fprintf(Out, "| %-*s ", static_cast<int>(Widths[I]), Cell.c_str());
    }
    std::fputs("|\n", Out);
  };

  printLine();
  printRow(Header);
  printLine();
  for (const auto &Row : Rows) {
    if (!Row.empty() && Row[0] == SeparatorTag) {
      printLine();
      continue;
    }
    printRow(Row);
  }
  printLine();
}

std::string TablePrinter::fmt(double Value, int Digits) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Digits, Value);
  return Buffer;
}

std::string TablePrinter::fmtInt(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%" PRIu64, Value);
  std::string Raw = Buffer;
  std::string Result;
  size_t Count = 0;
  for (auto It = Raw.rbegin(); It != Raw.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Result.push_back(',');
    Result.push_back(*It);
    ++Count;
  }
  std::reverse(Result.begin(), Result.end());
  return Result;
}
