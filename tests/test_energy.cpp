// Unit tests: the event-based dynamic energy model.
#include <gtest/gtest.h>

#include "energy/energy_model.hpp"
#include "harness/runner.hpp"

using namespace tdn;

namespace {
/// The counts of one demand read that misses everywhere: an L1 miss, an
/// LLC request that misses and fills, one DRAM access and the bytes its
/// request and reply move through the routers.
energy::EnergyInputs one_miss() {
  energy::EnergyInputs in;
  in.l1_misses = 1;
  in.llc_requests = 1;
  in.llc_misses = 1;
  in.dram_accesses = 1;
  in.noc_router_bytes = 160;
  return in;
}
}  // namespace

TEST(Energy, ZeroWhenNothingHappened) {
  const auto e = energy::compute_energy(energy::EnergyInputs{});
  EXPECT_DOUBLE_EQ(e.total_pj(), 0.0);
}

TEST(Energy, ScalesWithActivity) {
  const auto one = energy::compute_energy(one_miss());
  EXPECT_GT(one.llc_pj, 0.0);
  EXPECT_GT(one.noc_pj, 0.0);
  EXPECT_GT(one.dram_pj, 0.0);
  EXPECT_GT(one.l1_pj, 0.0);
  energy::EnergyInputs many = one_miss();
  many.llc_requests = 128;
  many.llc_misses = 128;
  many.noc_router_bytes = 128 * 160;
  many.flush_llc_lines = 16;
  const auto more = energy::compute_energy(many);
  EXPECT_GT(more.llc_pj, one.llc_pj);
  EXPECT_GT(more.noc_pj, one.noc_pj);
}

TEST(Energy, RrtUsesTcamFactor) {
  energy::EnergyInputs in = one_miss();
  in.rrt_lookups = 1000;
  energy::EnergyParams p;
  const auto e = energy::compute_energy(in, p);
  EXPECT_DOUBLE_EQ(e.rrt_pj, 1000.0 * p.rrt_sram_pj * p.rrt_tcam_factor);
}

TEST(Energy, ParamsAreRespected) {
  energy::EnergyParams cheap;
  cheap.llc_access_pj = 1.0;
  energy::EnergyParams pricey;
  pricey.llc_access_pj = 1000.0;
  const auto a = energy::compute_energy(one_miss(), cheap);
  const auto b = energy::compute_energy(one_miss(), pricey);
  EXPECT_DOUBLE_EQ(b.llc_pj / a.llc_pj, 1000.0);
  EXPECT_DOUBLE_EQ(a.noc_pj, b.noc_pj);  // independent knobs
}

// End to end: a run's exported DRAM energy is its DRAM access count priced
// by the model.
TEST(Energy, DramTracksMemoryAccesses) {
  harness::RunConfig cfg;
  cfg.workload = "gauss";
  cfg.params.scale = 0.1;
  const harness::RunResult r = harness::run_experiment(cfg, false);
  EXPECT_GT(r.get("dram.accesses"), 0.0);
  EXPECT_DOUBLE_EQ(r.get("energy.dram_pj"),
                   r.get("dram.accesses") *
                       energy::EnergyParams{}.dram_access_pj);
}
