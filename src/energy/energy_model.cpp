#include "energy/energy_model.hpp"

#include "coherence/coherent_system.hpp"
#include "mem/dram.hpp"
#include "noc/network.hpp"

namespace tdn::energy {

EnergyBreakdown compute_energy(const EnergyInputs& in,
                               const EnergyParams& p) {
  EnergyBreakdown e;
  // Every event that reads or writes a bank's data/tag arrays:
  // demand lookups, fills after misses, writebacks, and flush-engine scans.
  // The summation order is load-bearing: it matches the original
  // object-based formula exactly, so fingerprint goldens are unchanged.
  const double llc_events =
      static_cast<double>(in.llc_requests) +
      static_cast<double>(in.llc_misses) +     // fill write
      static_cast<double>(in.llc_writebacks) +
      static_cast<double>(in.flush_llc_lines);
  e.llc_pj = llc_events * p.llc_access_pj;
  const double l1_events = static_cast<double>(in.l1_hits) +
                           static_cast<double>(in.l1_misses) +
                           static_cast<double>(in.flush_l1_lines);
  e.l1_pj = l1_events * p.l1_access_pj;
  e.noc_pj = static_cast<double>(in.noc_router_bytes) * p.noc_byte_hop_pj;
  e.dram_pj = static_cast<double>(in.dram_accesses) * p.dram_access_pj;
  e.rrt_pj =
      static_cast<double>(in.rrt_lookups) * p.rrt_sram_pj * p.rrt_tcam_factor;
  return e;
}

EnergyInputs energy_inputs(const coherence::CoherentSystem& caches,
                           const noc::Network& net,
                           const mem::MemControllers& mcs,
                           std::uint64_t rrt_lookups) {
  const auto& s = caches.stats();
  EnergyInputs in;
  in.llc_requests = s.llc_requests.value();
  in.llc_misses = s.llc_misses.value();
  in.llc_writebacks = s.llc_writebacks.value();
  in.flush_llc_lines = s.flush_llc_lines.value();
  in.l1_hits = s.l1_hits.value();
  in.l1_misses = s.l1_misses.value();
  in.flush_l1_lines = s.flush_l1_lines.value();
  in.noc_router_bytes = net.total_router_bytes();
  in.dram_accesses = mcs.total_accesses();
  in.rrt_lookups = rrt_lookups;
  return in;
}

EnergyBreakdown compute_energy(const coherence::CoherentSystem& caches,
                               const noc::Network& net,
                               const mem::MemControllers& mcs,
                               std::uint64_t rrt_lookups,
                               const EnergyParams& p) {
  return compute_energy(energy_inputs(caches, net, mcs, rrt_lookups), p);
}

}  // namespace tdn::energy
