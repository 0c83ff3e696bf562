// TD-NUCA hardware-side mapping (paper Sec. III-B3).
//
// On every private-cache miss and writeback the core's RRT is consulted:
//   * miss in the RRT        -> S-NUCA static interleaving (untracked data),
//   * BankMask with 0 bits   -> bypass the LLC (straight to memory),
//   * BankMask with 1 bit    -> that LLC bank (local-bank mapping),
//   * BankMask with 4 bits   -> cluster-replicated: interleave across the
//                               cluster's banks by the low block-address bits.
// The RRT lookup latency is charged on the miss path (Sec. V-E sweeps it).
//
// The software side — placement decisions, RRT maintenance, flush sequencing
// — lives in tdnuca::TdNucaRuntimeHooks, and so do the paper's study
// variants (bypass-only, dry run): the hardware is the same in all of them.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "noc/mesh.hpp"
#include "nuca/mapping.hpp"
#include "nuca/snuca.hpp"
#include "stats/counters.hpp"
#include "tdnuca/cluster_map.hpp"
#include "tdnuca/rrt.hpp"

namespace tdn::nuca {

struct TdNucaConfig {
  unsigned rrt_entries = 64;
  Cycle rrt_latency = 1;
};

class TdNucaPolicy final : public MappingPolicy {
 public:
  TdNucaPolicy(const noc::Mesh& mesh, unsigned num_banks,
               TdNucaConfig cfg = {});

  const char* name() const override { return "TD-NUCA"; }

  MapDecision map(CoreId core, Addr vaddr, Addr paddr,
                  AccessKind kind) override;

  tdnuca::Rrt& rrt(CoreId core) { return rrts_.at(core); }
  const tdnuca::Rrt& rrt(CoreId core) const { return rrts_.at(core); }
  const tdnuca::ClusterMap& clusters() const noexcept { return clusters_; }
  nuca::CacheOps* ops() const noexcept { return ops_; }

  /// Cluster-replication mask for @p core under the current partition: the
  /// core's quadrant restricted to this app's banks, or the whole partition
  /// when the quadrant lies entirely outside it. Identical to the plain
  /// quadrant mask without a partition.
  BankMask replication_mask(CoreId core) const;
  /// Local-bank placement target for @p core: its own tile's bank, or — for
  /// a core whose tile is outside the partition (overlapping-core
  /// colocation) — a partition bank picked by core-id rotation.
  BankId local_bank(CoreId core) const;

  std::uint64_t rrt_hits() const noexcept { return rrt_hits_.value(); }
  std::uint64_t rrt_misses() const noexcept { return rrt_misses_.value(); }
  /// Mean RRT occupancy, sampled once per map() call (a dense, unbiased
  /// proxy for "during the whole execution", Sec. V-E).
  double mean_rrt_occupancy() const noexcept { return occupancy_.mean(); }
  unsigned max_rrt_occupancy() const;

  // --- checkpoint cold-normalization (tdn::ckpt) ------------------------
  /// Drop every RRT entry: retired requests' registrations must not steer a
  /// restored run. Quiescence guarantees no dependency ranges are live, so
  /// clearing loses nothing. The lookup statistics keep counting.
  void ckpt_reset() {
    for (auto& r : rrts_) r.clear();
  }

 private:
  TdNucaConfig cfg_;
  unsigned num_banks_;
  tdnuca::ClusterMap clusters_;
  std::vector<tdnuca::Rrt> rrts_;
  stats::Counter rrt_hits_;
  stats::Counter rrt_misses_;
  stats::Sampled occupancy_;
};

}  // namespace tdn::nuca
