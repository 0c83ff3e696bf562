// Runtime Region Table (paper Sec. III-B1) — the per-core hardware structure
// mapping physical address ranges of task dependencies to LLC BankMasks.
//
//  * 64 entries by default; range lookups (TCAM-style) at a configurable
//    latency (Sec. V-E sweeps 0–4 cycles).
//  * No replacement policy: when full, further ranges are simply not
//    registered and fall back to S-NUCA interleaving (Sec. III-B2).
//  * Entries are kept pairwise disjoint: registering a range that overlaps
//    existing entries trims it against them and inserts only the uncovered
//    remainder, so older registrations keep steering the addresses they
//    already own and invalidate_range never double-counts shadowed
//    duplicates.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/tile_mask.hpp"
#include "common/types.hpp"
#include "stats/counters.hpp"

namespace tdn::tdnuca {

struct RrtEntry {
  AddrRange prange;  ///< physical, line-aligned
  BankMask mask;     ///< 0 bits: bypass; 1 bit: single bank; 4 bits: cluster
};

class Rrt {
 public:
  explicit Rrt(unsigned capacity = 64, Cycle lookup_latency = 1)
      : capacity_(capacity), latency_(lookup_latency) {}

  /// Register a physical range. The range is first trimmed against existing
  /// entries (which keep steering the addresses they already cover); each
  /// uncovered piece becomes its own entry. Returns false when any piece was
  /// dropped because the table is full — those addresses fall back to S-NUCA
  /// mapping. A fully shadowed range registers nothing and returns true.
  bool register_range(const AddrRange& prange, BankMask mask);

  /// Remove every entry overlapping @p prange. Returns entries removed.
  unsigned invalidate_range(const AddrRange& prange);

  /// Range lookup for one physical address; nullopt on miss. Entries are
  /// disjoint, so at most one can match.
  std::optional<RrtEntry> lookup(Addr paddr) const;

  Cycle lookup_latency() const noexcept { return latency_; }
  unsigned size() const noexcept { return static_cast<unsigned>(entries_.size()); }
  unsigned capacity() const noexcept { return capacity_; }
  const std::vector<RrtEntry>& entries() const noexcept { return entries_; }

  // --- degradation / fault-injection hooks (tdn::fault) ---------------
  /// Drop failed banks from every entry's mask. Entries whose mask becomes
  /// empty *and was not empty before* (i.e. not bypass entries) are erased so
  /// their addresses fall back to S-NUCA over the healthy set. Returns
  /// {entries with a narrowed mask, entries erased}.
  struct HealResult {
    unsigned narrowed = 0;
    unsigned erased = 0;
  };
  HealResult heal(BankMask healthy);
  /// Overwrite entry @p idx's mask (fault injection: soft-error bit flip).
  void corrupt_entry(unsigned idx, BankMask mask);
  /// Drop every entry (checkpoint cold-normalization: the retired requests'
  /// registrations must not shadow a restored run's fresh ones). Occupancy
  /// statistics survive — they describe history.
  void clear() noexcept { entries_.clear(); }
  /// Erase entry @p idx (fault injection: forced eviction). Returns its
  /// former physical range so the runtime can scrub it.
  AddrRange evict_entry(unsigned idx);

  // --- occupancy statistics (Sec. V-E) --------------------------------
  unsigned max_occupancy() const noexcept { return max_occupancy_; }
  std::uint64_t lookups() const noexcept { return lookups_.value(); }
  std::uint64_t overflows() const noexcept { return overflow_.value(); }
  std::uint64_t overlap_trims() const noexcept { return overlap_trims_.value(); }
  /// Sample current occupancy into an external aggregate.
  void sample_occupancy(stats::Sampled& agg) const {
    agg.add(entries_.size());
  }

 private:
  unsigned capacity_;
  Cycle latency_;
  std::vector<RrtEntry> entries_;
  unsigned max_occupancy_ = 0;
  mutable stats::Counter lookups_;
  stats::Counter overflow_;
  stats::Counter overlap_trims_;
};

}  // namespace tdn::tdnuca
