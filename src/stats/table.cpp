#include "stats/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/require.hpp"

namespace tdn::stats {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  TDN_REQUIRE(!header_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  TDN_REQUIRE(cells.size() == header_.size(),
              "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << "\n";
  };
  emit(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c)
    rule += std::string(width[c], '-') + (c + 1 < header_.size() ? "  " : "");
  os << rule << "\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace tdn::stats
