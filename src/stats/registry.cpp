#include "stats/registry.hpp"

namespace tdn::stats {

void Registry::set(const std::string& key, double value) { values_[key] = value; }

double Registry::get(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? 0.0 : it->second;
}

bool Registry::has(const std::string& key) const { return values_.count(key) != 0; }

}  // namespace tdn::stats
