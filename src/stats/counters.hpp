// Lightweight statistics primitives. Counters are plain value types owned by
// the component that produces them; the Registry (registry.hpp) gives tools a
// uniform way to dump everything.
#pragma once

#include <cstdint>

namespace tdn::stats {

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept { value_ += by; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Running mean of an integer-valued sample (NUCA distance per access, miss
/// latency per fill, RRT occupancy per lookup). The sum is an integer, so
/// totals split at any point and added back together are exact.
class Sampled {
 public:
  void add(std::uint64_t v) noexcept {
    sum_ += v;
    ++n_;
  }
  double mean() const noexcept {
    return n_ > 0 ? static_cast<double>(sum_) / static_cast<double>(n_)
                  : 0.0;
  }
  std::uint64_t total() const noexcept { return sum_; }
  std::uint64_t samples() const noexcept { return n_; }

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t n_ = 0;
};

}  // namespace tdn::stats
