// Unit tests: the event-based dynamic energy model.
#include <gtest/gtest.h>

#include "coherence/coherent_system.hpp"
#include "energy/energy_model.hpp"
#include "mem/dram.hpp"
#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "nuca/snuca.hpp"
#include "sim/event_queue.hpp"

using namespace tdn;

namespace {
struct Rig {
  sim::EventQueue eq;
  noc::Mesh mesh{2, 2};
  noc::Network net{mesh, eq, {}};
  mem::MemControllers mcs{1, {0}, {}};
  nuca::SNucaPolicy policy{4};
  coherence::CoherentSystem sys{eq, net, mesh, mcs, policy, {}, 4};

  void access(CoreId c, Addr a, AccessKind k) {
    bool done = false;
    sys.access(c, a, a, k, [&] { done = true; });
    eq.run();
    ASSERT_TRUE(done);
  }
};
}  // namespace

TEST(Energy, ZeroWhenNothingHappened) {
  Rig rig;
  const auto e = energy::compute_energy(rig.sys, rig.net, rig.mcs, 0);
  EXPECT_DOUBLE_EQ(e.total_pj(), 0.0);
}

TEST(Energy, ScalesWithActivity) {
  Rig rig;
  rig.access(0, 0x1000, AccessKind::Read);
  const auto one = energy::compute_energy(rig.sys, rig.net, rig.mcs, 0);
  EXPECT_GT(one.llc_pj, 0.0);
  EXPECT_GT(one.noc_pj, 0.0);
  EXPECT_GT(one.dram_pj, 0.0);
  EXPECT_GT(one.l1_pj, 0.0);
  for (Addr a = 0x2000; a < 0x4000; a += 64) rig.access(0, a, AccessKind::Read);
  const auto many = energy::compute_energy(rig.sys, rig.net, rig.mcs, 0);
  EXPECT_GT(many.llc_pj, one.llc_pj);
  EXPECT_GT(many.noc_pj, one.noc_pj);
}

TEST(Energy, RrtUsesTcamFactor) {
  Rig rig;
  rig.access(0, 0x1000, AccessKind::Read);
  energy::EnergyParams p;
  const auto e = energy::compute_energy(rig.sys, rig.net, rig.mcs, 1000, p);
  EXPECT_DOUBLE_EQ(e.rrt_pj, 1000.0 * p.rrt_sram_pj * p.rrt_tcam_factor);
}

TEST(Energy, ParamsAreRespected) {
  Rig rig;
  rig.access(0, 0x1000, AccessKind::Read);
  energy::EnergyParams cheap;
  cheap.llc_access_pj = 1.0;
  energy::EnergyParams pricey;
  pricey.llc_access_pj = 1000.0;
  const auto a = energy::compute_energy(rig.sys, rig.net, rig.mcs, 0, cheap);
  const auto b = energy::compute_energy(rig.sys, rig.net, rig.mcs, 0, pricey);
  EXPECT_DOUBLE_EQ(b.llc_pj / a.llc_pj, 1000.0);
  EXPECT_DOUBLE_EQ(a.noc_pj, b.noc_pj);  // independent knobs
}

TEST(Energy, DramTracksMemoryAccesses) {
  Rig rig;
  // Two misses to distinct lines = two DRAM reads.
  rig.access(0, 0x1000, AccessKind::Read);
  rig.access(0, 0x2000, AccessKind::Read);
  energy::EnergyParams p;
  const auto e = energy::compute_energy(rig.sys, rig.net, rig.mcs, 0, p);
  EXPECT_DOUBLE_EQ(e.dram_pj, 2.0 * p.dram_access_pj);
}
