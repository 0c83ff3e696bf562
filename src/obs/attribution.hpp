// LatencyAttribution — per-access cycle attribution for the LLC demand path.
//
// The coherence layer stamps one in-flight record per (core, line) primary
// miss as the transaction moves through the machine:
//
//   t_issue  L1 miss issued (MSHR registration attempt)
//   t_sent   request leaves the core (after L1 probe + policy lookup)
//   t_bank   request delivered at the home bank (or the MC, for bypasses)
//   t_svc    bank service-window slot begins
//   t_probe  bank tag probe completes (hit/miss known)
//   t_mem    fill data arrives back at the bank from the memory controller
//   done     the fill lands in the L1 and the access replays
//
// finalize() turns the stamps into a six-way breakdown by telescoping
// clamped differences — each component is max(0, t_k - prev) with prev
// advancing monotonically — so the components sum to the measured
// end-to-end miss latency *by construction*, whatever subset of stamps a
// particular transaction flavour (hit, miss, upgrade, bypass) touched.
// Merged (MSHR-coalesced) misses have no record of their own: their whole
// latency is inherited waiting, reported in a separate histogram.
//
// Everything here observes; nothing feeds back into simulation timing, and
// the per-access cost when attribution is off is a single null-pointer test
// at each stamp site.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/types.hpp"
#include "obs/latency_histogram.hpp"

namespace tdn::obs {

/// Components of one LLC access's latency, in pipeline order.
enum class LatencyComponent : std::uint8_t {
  MshrWait,    ///< issue -> request leaves the core (incl. MSHR-full backoff)
  NocRequest,  ///< request hops core -> home bank
  BankQueue,   ///< home-bank arrival -> service-window slot (incl. blocking)
  BankService, ///< tag/data array access
  Dram,        ///< bank -> MC -> DRAM -> bank (zero for LLC hits/upgrades)
  NocReply,    ///< data return + fill (incl. invalidation round-trips)
  kCount,
};

constexpr const char* to_string(LatencyComponent c) noexcept {
  switch (c) {
    case LatencyComponent::MshrWait: return "mshr_wait";
    case LatencyComponent::NocRequest: return "noc_request";
    case LatencyComponent::BankQueue: return "bank_queue";
    case LatencyComponent::BankService: return "bank_service";
    case LatencyComponent::Dram: return "dram";
    case LatencyComponent::NocReply: return "noc_reply";
    default: return "?";
  }
}

class LatencyAttribution {
 public:
  static constexpr unsigned kComponents =
      static_cast<unsigned>(LatencyComponent::kCount);
  /// Per-distance histograms for 0..kMaxDistance hops (larger clamps).
  static constexpr unsigned kMaxDistance = 12;

  // --- hot-path stamping (coherence layer; all O(1), no allocation beyond
  // --- the inflight hash map) ------------------------------------------
  void on_launch(CoreId core, Addr line, Cycle issued_at, Cycle sent_at,
                 unsigned hops);
  void on_bank_arrival(CoreId core, Addr line, Cycle now);
  void on_service_start(CoreId core, Addr line, Cycle start, Cycle probe_at);
  void on_memory_data(CoreId core, Addr line, Cycle now);
  /// Finalize the access completing at @p now. A missing record marks a
  /// merged (MSHR-coalesced) miss: its whole latency is inherited waiting.
  void on_complete(CoreId core, Addr line, Cycle issued_at, Cycle now);

  // --- sinks the NoC / DRAM models feed directly (wired by the system) --
  LatencyHistogram& noc_transit(unsigned cls) noexcept {
    return noc_transit_[cls & 1];
  }
  LatencyHistogram& dram_queue() noexcept { return dram_queue_; }
  /// Demand-path translation latency per access (TLB probe, plus the walk
  /// on a vm-mode miss); fed by each core's Mmu.
  LatencyHistogram& translation() noexcept { return translation_; }
  /// Completed page-walk latencies (vm mode only; empty otherwise).
  LatencyHistogram& walk() noexcept { return walk_; }

  // --- results ----------------------------------------------------------
  const LatencyHistogram& total() const noexcept { return total_; }
  const LatencyHistogram& merged() const noexcept { return merged_; }
  const LatencyHistogram& component(LatencyComponent c) const noexcept {
    return components_[static_cast<unsigned>(c)];
  }
  const LatencyHistogram& by_distance(unsigned hops) const noexcept {
    return by_distance_[hops > kMaxDistance ? kMaxDistance : hops];
  }
  /// Transactions stamped but never completed (lost to fault evacuation;
  /// zero on a fault-free run).
  std::size_t inflight() const noexcept { return inflight_.size(); }

  /// The `access_latency` / `noc` / `dram` sections of the
  /// tdn-obs-report-v1 document (see docs/observability.md).
  std::string report_json() const;

 private:
  struct Inflight {
    Cycle t_issue = 0;
    Cycle t_sent = 0;
    Cycle t_bank = 0;
    Cycle t_svc = 0;
    Cycle t_probe = 0;
    Cycle t_mem = 0;
    unsigned hops = 0;
  };
  static std::uint64_t key(CoreId core, Addr line) noexcept {
    return (static_cast<std::uint64_t>(core) << 56) ^ line;
  }

  std::unordered_map<std::uint64_t, Inflight> inflight_;
  LatencyHistogram total_;
  LatencyHistogram merged_;
  std::array<LatencyHistogram, kComponents> components_;
  std::array<LatencyHistogram, kMaxDistance + 1> by_distance_;
  std::array<LatencyHistogram, 2> noc_transit_;  ///< [0]=Control, [1]=Data
  LatencyHistogram dram_queue_;
  LatencyHistogram translation_;
  LatencyHistogram walk_;
};

}  // namespace tdn::obs
