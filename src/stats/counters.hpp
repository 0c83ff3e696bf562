// Lightweight statistics primitives. Counters are plain value types owned by
// the component that produces them; the Registry (registry.hpp) gives tools a
// uniform way to dump everything.
#pragma once

#include <algorithm>
#include <cstdint>

namespace tdn::stats {

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept { value_ += by; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Running mean/min/max of a sampled quantity (e.g. NUCA distance per access,
/// RRT occupancy per sample point).
class Sampled {
 public:
  void add(double v, double weight = 1.0) noexcept {
    sum_ += v * weight;
    weight_ += weight;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    ++n_;
  }
  double mean() const noexcept { return weight_ > 0 ? sum_ / weight_ : 0.0; }
  double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  std::uint64_t samples() const noexcept { return n_; }
  double total() const noexcept { return sum_; }
  /// Accumulated weight (== samples() when every add used weight 1).
  /// Checkpoint folds use it to recombine means exactly: the folded
  /// aggregate carries (sum, weight) so `baseline + fresh` reproduces the
  /// uninterrupted run's division bit-for-bit.
  double weight() const noexcept { return weight_; }
  void reset() noexcept { *this = Sampled{}; }

 private:
  double sum_ = 0.0;
  double weight_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
  std::uint64_t n_ = 0;
};

}  // namespace tdn::stats
