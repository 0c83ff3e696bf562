#include "harness/results_cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/write_file.hpp"

namespace tdn::harness {

std::string ResultsCache::directory() {
  if (const char* d = std::getenv("TDN_CACHE_DIR")) return d;
  return "/tmp/tdnuca_cache";
}

bool ResultsCache::enabled() {
  const char* v = std::getenv("TDN_NO_CACHE");
  return v == nullptr || v[0] == '0';
}

std::optional<std::map<std::string, double>> ResultsCache::load(
    const std::string& key) {
  if (!enabled()) return std::nullopt;
  const std::filesystem::path p =
      std::filesystem::path(directory()) / (key + ".csv");
  std::ifstream in(p);
  if (!in) return std::nullopt;
  std::map<std::string, double> m;
  std::string line;
  while (std::getline(in, line)) {
    // Tolerate malformed lines (corrupt entry from a pre-atomic-rename
    // writer, stray edit, disk hiccup): skip them instead of trusting or
    // propagating them; the metric simply recomputes on its next miss.
    const auto comma = line.rfind(',');
    if (comma == std::string::npos || comma == 0) continue;
    try {
      std::size_t consumed = 0;
      const std::string value = line.substr(comma + 1);
      const double v = std::stod(value, &consumed);
      if (consumed != value.size()) continue;  // trailing junk: torn write
      m[line.substr(0, comma)] = v;
    } catch (...) {
      continue;
    }
  }
  if (m.empty()) return std::nullopt;
  return m;
}

void ResultsCache::store(const std::string& key,
                         const std::map<std::string, double>& metrics) {
  if (!enabled()) return;
  const std::filesystem::path p =
      std::filesystem::path(directory()) / (key + ".csv");
  // Publication is atomic (see tdn::write_file): concurrent writers of the
  // same key each publish a complete file, last rename wins — both wrote
  // identical bytes, simulations being deterministic.
  std::ostringstream out;
  out.precision(17);
  for (const auto& [k, v] : metrics) out << k << "," << v << "\n";
  write_file(p.string(), out.str());
}

}  // namespace tdn::harness
