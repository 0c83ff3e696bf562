// HealthState — the shared, mutable picture of which NUCA resources are
// currently usable. The FaultInjector writes it when a scheduled fault
// fires; the mapping policies, coherence protocol, NoC and runtime hooks
// read it to steer around dead banks and links (docs/faults.md).
//
// Depends only on common/ so that every layer can hold a pointer without
// cycles. All holders treat a null pointer (or a HealthState with no
// failures) as "fully healthy" and take their original, fault-free code
// paths — an empty fault plan is bit-identical to a build without fault
// support.
#pragma once

#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "common/tile_mask.hpp"
#include "common/types.hpp"

namespace tdn::fault {

/// Mesh link directions, matching noc::Network's accounting.
inline constexpr unsigned kLinkEast = 0;
inline constexpr unsigned kLinkWest = 1;
inline constexpr unsigned kLinkNorth = 2;
inline constexpr unsigned kLinkSouth = 3;

/// Raw event counters incremented by the degradation paths. Exported as
/// `fault.*` metrics by system::Machine::add_stats when a plan is active.
struct FaultCounters {
  std::uint64_t banks_failed = 0;
  std::uint64_t banks_slowed = 0;
  std::uint64_t links_failed = 0;
  std::uint64_t links_degraded = 0;
  std::uint64_t bounced_requests = 0;   ///< LLC requests re-homed off a dead bank
  std::uint64_t dead_bank_writebacks = 0;  ///< writebacks forwarded to DRAM
  std::uint64_t evacuated_lines = 0;
  std::uint64_t evacuated_dirty = 0;
  std::uint64_t rrt_entries_narrowed = 0;
  std::uint64_t rrt_entries_dropped = 0;
  std::uint64_t rrt_corruptions = 0;
  std::uint64_t rrt_evictions = 0;
  std::uint64_t rrt_scrubs = 0;
  std::uint64_t noc_reroutes = 0;    ///< packets sent via Y-X fallback
  std::uint64_t noc_retries = 0;     ///< packets delayed by dead-link backoff
  std::uint64_t dram_stalls = 0;
};

class HealthState {
 public:
  HealthState(unsigned num_banks, unsigned line_size)
      : num_banks_(num_banks),
        line_size_(line_size),
        bank_factor_(num_banks, 1u),
        link_failed_(static_cast<std::size_t>(num_banks) * 4, 0u),
        link_factor_(static_cast<std::size_t>(num_banks) * 4, 1u) {
    for (BankId b = 0; b < num_banks; ++b) healthy_.push_back(b);
  }

  // --- banks ----------------------------------------------------------
  void fail_bank(BankId b) {
    TDN_REQUIRE(b < num_banks_, "fault: bank index out of range");
    if (failed_banks_.test(b)) return;
    TDN_REQUIRE(healthy_.size() > 1, "fault: cannot fail the last LLC bank");
    failed_banks_.set(b);
    healthy_.clear();
    for (BankId i = 0; i < num_banks_; ++i)
      if (!failed_banks_.test(i)) healthy_.push_back(i);
    ++counters.banks_failed;
  }
  void slow_bank(BankId b, unsigned factor) {
    TDN_REQUIRE(b < num_banks_, "fault: bank index out of range");
    TDN_REQUIRE(factor >= 1, "fault: bank slow-down factor must be >= 1");
    bank_factor_[b] = factor;
    ++counters.banks_slowed;
  }
  bool bank_ok(BankId b) const { return !failed_banks_.test(b); }
  unsigned bank_factor(BankId b) const { return bank_factor_[b]; }
  bool any_bank_failed() const { return !failed_banks_.empty(); }
  bool any_bank_slowed() const {
    for (const unsigned f : bank_factor_)
      if (f != 1) return true;
    return false;
  }
  BankMask healthy_banks() const {
    BankMask m;
    for (const BankId b : healthy_) m.set(b);
    return m;
  }
  BankMask failed_banks() const { return failed_banks_; }
  unsigned num_healthy() const { return static_cast<unsigned>(healthy_.size()); }

  /// S-NUCA line interleaving restricted to the healthy banks — the
  /// degraded fallback home for any address (paper Sec. III-B2's overflow
  /// fallback, shrunk to the surviving set).
  BankId remap_bank(Addr paddr) const {
    return healthy_[(paddr / line_size_) % healthy_.size()];
  }

  // --- mesh links (per source tile, per direction) --------------------
  void fail_link(CoreId tile, unsigned dir) {
    link_failed_.at(link_index(tile, dir)) = 1;
    any_link_failed_ = true;
    ++counters.links_failed;
  }
  void degrade_link(CoreId tile, unsigned dir, unsigned factor) {
    TDN_REQUIRE(factor >= 1, "fault: link degrade factor must be >= 1");
    link_factor_.at(link_index(tile, dir)) = factor;
    ++counters.links_degraded;
  }
  bool link_ok(CoreId tile, unsigned dir) const {
    return link_failed_[link_index(tile, dir)] == 0;
  }
  unsigned link_factor(CoreId tile, unsigned dir) const {
    return link_factor_[link_index(tile, dir)];
  }
  bool any_link_failed() const { return any_link_failed_; }

  /// True when any resource is failed/degraded — the cheap "do I need to
  /// look?" gate the hot paths use before consulting details.
  bool any_fault() const {
    return any_bank_failed() || any_bank_slowed() || any_link_failed_;
  }

  unsigned num_banks() const { return num_banks_; }
  unsigned line_size() const { return line_size_; }

  /// Degradation-path event counters; mutable by design (written by const
  /// holders on otherwise-const paths).
  mutable FaultCounters counters;

 private:
  std::size_t link_index(CoreId tile, unsigned dir) const {
    TDN_REQUIRE(tile < num_banks_ && dir < 4, "fault: link index out of range");
    return static_cast<std::size_t>(tile) * 4 + dir;
  }

  unsigned num_banks_;
  unsigned line_size_;
  BankMask failed_banks_;
  std::vector<BankId> healthy_;
  std::vector<unsigned> bank_factor_;
  std::vector<std::uint8_t> link_failed_;
  std::vector<unsigned> link_factor_;
  bool any_link_failed_ = false;
};

}  // namespace tdn::fault
