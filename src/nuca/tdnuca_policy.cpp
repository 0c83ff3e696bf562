#include "nuca/tdnuca_policy.hpp"

#include <algorithm>

namespace tdn::nuca {

TdNucaPolicy::TdNucaPolicy(const noc::Mesh& mesh, unsigned num_banks,
                           TdNucaConfig cfg)
    : cfg_(cfg), clusters_(mesh) {
  rrts_.reserve(num_banks);
  for (unsigned i = 0; i < num_banks; ++i)
    rrts_.emplace_back(cfg_.rrt_entries, cfg_.rrt_latency);
  set_partition(BankMask::first_n(num_banks), CoreMask::first_n(num_banks));
}

MapDecision TdNucaPolicy::map(CoreId core, Addr /*vaddr*/, Addr paddr,
                              AccessKind /*kind*/) {
  tdnuca::Rrt& rrt = rrts_[core];
  rrt.sample_occupancy(occupancy_);
  const auto entry = rrt.lookup(paddr);
  const Cycle lat = cfg_.rrt_latency;
  if (!entry) {
    rrt_misses_.inc();
    return MapDecision::to_bank(
        degrade(interleave_bank(paddr), paddr), lat);
  }
  rrt_hits_.inc();
  BankMask mask = entry->mask;
  if (health_ != nullptr && health_->any_bank_failed() && !mask.empty()) {
    // Stale entries can survive briefly between a bank failure and the
    // runtime's scrub pass; mask dead banks out here so no request targets
    // them. A fully-dead mask falls back to healthy-set interleaving.
    mask = mask & health_->healthy_banks();
    if (mask.empty())
      return MapDecision::to_bank(
          degrade(interleave_bank(paddr), paddr), lat);
  }
  const int bits = mask.count();
  if (bits == 0) return MapDecision::bypass(lat);
  if (bits == 1) return MapDecision::to_bank(mask.sole_bit(), lat);
  return MapDecision::to_bank(tdnuca::ClusterMap::bank_for_mask(mask, paddr),
                              lat);
}

BankMask TdNucaPolicy::replication_mask(CoreId core) const {
  return clusters_.mask_of(clusters_.cluster_of(core)) & bank_partition();
}

unsigned TdNucaPolicy::max_rrt_occupancy() const {
  unsigned m = 0;
  for (const auto& r : rrts_) m = std::max(m, r.max_occupancy());
  return m;
}

}  // namespace tdn::nuca
