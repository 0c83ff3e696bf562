// Event-based dynamic energy model (McPAT/CACTI substitution; DESIGN.md
// Sec. 2). Per-event energies are CACTI-6.0-flavoured values for a 22nm
// process; the paper's Figures 13/14 report energies *normalized to S-NUCA*,
// which this linear model reproduces because the figures track LLC access
// counts and NoC byte-hops.
//
// The RRT is modelled as an SRAM whose per-access energy is multiplied by
// 30 to approximate a real TCAM implementation (paper Sec. V-E, citing
// Z-TCAM).
#pragma once

#include <cstdint>

namespace tdn::coherence {
class CoherentSystem;
}
namespace tdn::noc {
class Network;
}
namespace tdn::mem {
class MemControllers;
}

namespace tdn::energy {

struct EnergyParams {
  double llc_access_pj = 150.0;   ///< one 64B read/write of a 16-way bank
  double l1_access_pj = 12.0;     ///< one L1 access
  double dram_access_pj = 2200.0; ///< one 64B DRAM transfer
  double noc_byte_hop_pj = 1.1;   ///< moving one byte through one router+link
  double rrt_sram_pj = 0.6;       ///< SRAM-equivalent RRT lookup
  double rrt_tcam_factor = 30.0;  ///< TCAM approximation multiplier
};

struct EnergyBreakdown {
  double llc_pj = 0;
  double noc_pj = 0;
  double dram_pj = 0;
  double l1_pj = 0;
  double rrt_pj = 0;
  double total_pj() const { return llc_pj + noc_pj + dram_pj + l1_pj + rrt_pj; }
};

/// The raw event counts the model consumes, decoupled from the live
/// objects. A restored run (tdn::ckpt) sums its snapshot baseline's counts
/// with the post-restore counts *as integers* and evaluates the model once
/// on the combined inputs — the only way the interrupted+resumed lineage's
/// energy is bit-identical to the uninterrupted one (evaluating the linear
/// model per segment and adding the doubles is not associative).
struct EnergyInputs {
  std::uint64_t llc_requests = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t llc_writebacks = 0;
  std::uint64_t flush_llc_lines = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t flush_l1_lines = 0;
  std::uint64_t noc_router_bytes = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t rrt_lookups = 0;
};

/// Aggregate dynamic energy from explicit event counts.
EnergyBreakdown compute_energy(const EnergyInputs& in,
                               const EnergyParams& params = {});

/// The event counts the live objects have accumulated so far.
EnergyInputs energy_inputs(const coherence::CoherentSystem& caches,
                           const noc::Network& net,
                           const mem::MemControllers& mcs,
                           std::uint64_t rrt_lookups);

/// Aggregate dynamic energy from the run's event counts.
/// @p rrt_lookups is 0 for policies without an RRT.
EnergyBreakdown compute_energy(const coherence::CoherentSystem& caches,
                               const noc::Network& net,
                               const mem::MemControllers& mcs,
                               std::uint64_t rrt_lookups,
                               const EnergyParams& params = {});

}  // namespace tdn::energy
