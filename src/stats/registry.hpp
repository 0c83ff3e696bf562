// A name -> value registry that components export their statistics into at
// the end of a run. Keys are hierarchical dotted paths ("llc.bank3.hits").
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace tdn::stats {

class Registry {
 public:
  void set(const std::string& key, double value);

  double get(const std::string& key) const;             ///< 0.0 if absent.
  bool has(const std::string& key) const;
  const std::map<std::string, double>& all() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

}  // namespace tdn::stats
