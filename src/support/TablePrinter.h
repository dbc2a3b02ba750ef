//===- support/TablePrinter.h - Fixed-width text tables --------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width ASCII table printer used by the benchmark harnesses to emit
/// rows in the same shape as the paper's tables and figure series.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_SUPPORT_TABLEPRINTER_H
#define CCL_SUPPORT_TABLEPRINTER_H

#include <cstdio>
#include <string>
#include <vector>

namespace ccl {

/// Collects rows of string cells and prints them with per-column widths.
///
/// Usage:
/// \code
///   TablePrinter Table({"Benchmark", "Cycles", "Speedup"});
///   Table.addRow({"treeadd", "123456", "1.28x"});
///   Table.print(stdout);
/// \endcode
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> Header);

  /// Appends a data row. The row may have fewer cells than the header;
  /// missing cells print as empty.
  void addRow(std::vector<std::string> Row);

  /// Inserts a horizontal separator line before the next row.
  void addSeparator();

  /// Renders the table to \p Out.
  void print(std::FILE *Out = stdout) const;

  /// Formats a double with \p Digits fractional digits.
  static std::string fmt(double Value, int Digits = 2);

  /// Formats an integer with thousands separators ("1,234,567").
  static std::string fmtInt(uint64_t Value);

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
  static constexpr const char *SeparatorTag = "\x01--";
};

} // namespace ccl

#endif // CCL_SUPPORT_TABLEPRINTER_H
