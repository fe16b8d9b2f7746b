// A tiny fixed-width text table writer used by METRICS reports, the
// bench harnesses and the examples. Produces aligned, monospace tables
// mirroring the tabular displays of the original METRICS tool.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace oregami {

/// Accumulates rows of cells and renders them with per-column alignment.
///
/// Usage:
///   TextTable t({"proc", "tasks", "load"});
///   t.add_row({"0", "4", "120"});
///   std::cout << t.to_string();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends one row; it may have fewer cells than the header (missing
  /// cells render empty) but not more.
  void add_row(std::vector<std::string> cells);

  /// Renders the table with a header underline, columns padded to the
  /// widest cell, two spaces between columns.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` places after the point (no locale).
[[nodiscard]] std::string format_fixed(double value, int digits);

}  // namespace oregami
