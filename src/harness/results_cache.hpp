// Disk memoization for experiment results. Simulations are deterministic, so
// a (workload, config-fingerprint) key fully determines the result; cached
// entries are plain key,value CSV files under $TDN_CACHE_DIR (default
// /tmp/tdnuca_cache). Set TDN_NO_CACHE=1 to disable.
//
// Safe under concurrent readers and writers (multiple SweepRunner pool
// threads, multiple bench processes): store() publishes via temp file +
// atomic rename, so load() sees complete files only; load() additionally
// skips malformed lines rather than trusting them. On-disk format and
// operational details: docs/harness.md.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace tdn::harness {

class ResultsCache {
 public:
  /// Directory from TDN_CACHE_DIR or the default; created on demand.
  static std::string directory();
  static bool enabled();

  static std::optional<std::map<std::string, double>> load(
      const std::string& key);
  static void store(const std::string& key,
                    const std::map<std::string, double>& metrics);
};

}  // namespace tdn::harness
