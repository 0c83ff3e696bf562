// Aligned-column text tables for the figure/table regeneration benches.
// Every bench binary prints its paper artifact through this formatter so the
// output is uniform and diffable.
#pragma once

#include <string>
#include <vector>

namespace tdn::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Format a double with the given precision (helper for row building).
  static std::string num(double v, int precision = 3);

  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tdn::stats
