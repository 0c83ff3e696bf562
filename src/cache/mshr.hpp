// Miss Status Holding Registers: outstanding-miss tracking with same-line
// request merging and a finite capacity (structural hazard).
//
// The file is flat: `capacity` entries, each a line address and the list of
// callbacks waiting on it. Callbacks are stored inline and each entry's list
// keeps its storage across misses, so a steady-state miss allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"
#include "sim/inline_function.hpp"
#include "stats/counters.hpp"

namespace tdn::cache {

class MshrFile {
 public:
  /// A fill callback. Its inline capacity leaves room for it inside the
  /// sim::Action that replays it (an InlineFunction cannot nest inside one
  /// of its own capacity).
  using Callback = sim::InlineFunction<void(), 96>;

  explicit MshrFile(unsigned capacity = 16)
      : capacity_(capacity), lines_(capacity, kFree), waiters_(capacity) {}

  /// Result of registering a miss for @p line_addr.
  enum class Outcome {
    NewEntry,  ///< primary miss: caller must launch the transaction
    Merged,    ///< secondary miss: callback queued behind the in-flight one
    Full,      ///< no free MSHR: caller must retry later
  };

  /// Register a miss. On Outcome::Full @p on_fill is guaranteed untouched
  /// (not moved from): the caller keeps ownership and must retry later —
  /// a dropped fill callback would strand the access forever.
  Outcome register_miss(Addr line_addr, Callback&& on_fill);

  bool in_flight(Addr line_addr) const { return find(line_addr) != kNone; }
  std::size_t outstanding() const noexcept { return outstanding_; }
  unsigned capacity() const noexcept { return capacity_; }

  /// Complete the miss: hand every queued callback (primary first) to
  /// @p sink as a Callback&, then free the entry. The sink may run the
  /// callback or move it out, but must not register misses with this file.
  template <typename Sink>
  void complete(Addr line_addr, Sink&& sink) {
    const std::size_t i = find(line_addr);
    TDN_REQUIRE(i != kNone, "completing a miss that is not in flight");
    for (Callback& cb : waiters_[i]) sink(cb);
    waiters_[i].clear();  // keeps its storage for the next miss
    lines_[i] = kFree;
    --outstanding_;
  }

  std::uint64_t merges() const noexcept { return merges_.value(); }
  std::uint64_t structural_stalls() const noexcept { return full_.value(); }

 private:
  /// Marks a free entry; never a line address (those are line-aligned).
  static constexpr Addr kFree = ~Addr{0};
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t find(Addr line_addr) const noexcept {
    for (std::size_t i = 0; i < lines_.size(); ++i)
      if (lines_[i] == line_addr) return i;
    return kNone;
  }

  unsigned capacity_;
  std::size_t outstanding_ = 0;
  std::vector<Addr> lines_;                     ///< per entry; kFree if free
  std::vector<std::vector<Callback>> waiters_;  ///< per entry, primary first
  stats::Counter merges_;
  stats::Counter full_;
};

}  // namespace tdn::cache
