#include "energy/energy_model.hpp"

namespace tdn::energy {

EnergyBreakdown compute_energy(const EnergyInputs& in,
                               const EnergyParams& p) {
  EnergyBreakdown e;
  // Every event that reads or writes a bank's data/tag arrays:
  // demand lookups, fills after misses, writebacks, and flush-engine scans.
  // The summation order is load-bearing: reordering it moves the metrics
  // goldens.
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

}  // namespace tdn::energy
