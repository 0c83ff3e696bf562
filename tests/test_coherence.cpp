// Integration-level tests of the MESI cache hierarchy on a small 2x2 system
// under S-NUCA, exercising fills, hits, upgrades, writebacks, invalidations,
// inclusive back-invalidation, LLC bypass, and range flushes.
#include <gtest/gtest.h>

#include "coherence/coherent_system.hpp"
#include "mem/dram.hpp"
#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "nuca/snuca.hpp"
#include "sim/event_queue.hpp"

using namespace tdn;
using namespace tdn::coherence;

namespace {

struct Rig {
  sim::EventQueue eq;
  noc::Mesh mesh{2, 2};
  noc::Network net{mesh, eq, {}};
  mem::MemControllers mcs{1, {0}, {}};
  nuca::SNucaPolicy policy{4};
  HierarchyConfig cfg;
  std::unique_ptr<CoherentSystem> sys;

  explicit Rig(HierarchyConfig c = {}) : cfg(c) {
    sys = std::make_unique<CoherentSystem>(eq, net, mesh, mcs, policy, cfg, 4);
  }

  Cycle access(CoreId core, Addr paddr, AccessKind kind) {
    Cycle done = kNeverCycle;
    sys->access(core, paddr, paddr, kind, [&] { done = eq.now(); });
    eq.run();
    EXPECT_NE(done, kNeverCycle);
    return done;
  }
};

/// A policy that bypasses everything (to test the bypass datapath).
class AlwaysBypass final : public nuca::MappingPolicy {
 public:
  const char* name() const override { return "bypass-all"; }
  nuca::MapDecision map(CoreId, Addr, Addr, AccessKind) override {
    return nuca::MapDecision::bypass();
  }
};

/// S-NUCA placement that counts its map() and demand-hook calls.
class CountingSNuca final : public nuca::MappingPolicy {
 public:
  const char* name() const override { return "counting-S-NUCA"; }
  nuca::MapDecision map(CoreId, Addr, Addr paddr, AccessKind) override {
    ++maps;
    return nuca::MapDecision::to_bank(nuca::snuca_bank(paddr, 4));
  }
  void on_access(CoreId, Addr, AccessKind) override { ++hooks; }
  unsigned maps = 0;
  unsigned hooks = 0;
};

}  // namespace

TEST(Coherence, ReadMissFillsAndHits) {
  Rig rig;
  const Cycle t1 = rig.access(0, 0x1000, AccessKind::Read);
  EXPECT_GT(t1, rig.cfg.l1_latency);  // went to LLC + memory
  EXPECT_EQ(rig.sys->stats().l1_misses.value(), 1u);
  EXPECT_EQ(rig.sys->stats().llc_misses.value(), 1u);
  EXPECT_EQ(rig.mcs.mc(0).reads(), 1u);

  const Cycle before = rig.eq.now();
  const Cycle t2 = rig.access(0, 0x1000, AccessKind::Read);
  EXPECT_EQ(t2, before);  // L1 hit
  EXPECT_EQ(rig.sys->stats().l1_hits.value(), 1u);
}

TEST(Coherence, SecondCoreReadHitsLlc) {
  Rig rig;
  rig.access(0, 0x1000, AccessKind::Read);
  rig.access(1, 0x1000, AccessKind::Read);
  EXPECT_EQ(rig.sys->stats().llc_hits.value(), 1u);
  EXPECT_EQ(rig.mcs.mc(0).reads(), 1u);  // no second memory fetch
}

TEST(Coherence, WriteMissGetsExclusive) {
  Rig rig;
  rig.access(0, 0x2000, AccessKind::Write);
  // Subsequent write is a pure L1 hit (M state).
  const Cycle before = rig.eq.now();
  const Cycle t = rig.access(0, 0x2000, AccessKind::Write);
  EXPECT_EQ(t, before);
}

TEST(Coherence, UpgradeInvalidatesSharers) {
  Rig rig;
  rig.access(0, 0x3000, AccessKind::Read);
  rig.access(1, 0x3000, AccessKind::Read);
  // Core 0 writes: core 1's copy must be invalidated.
  rig.access(0, 0x3000, AccessKind::Write);
  EXPECT_GE(rig.sys->stats().invalidations_sent.value(), 1u);
  // Core 1 re-reads: misses in L1 (its copy was invalidated).
  const auto misses_before = rig.sys->stats().l1_misses.value();
  rig.access(1, 0x3000, AccessKind::Read);
  EXPECT_EQ(rig.sys->stats().l1_misses.value(), misses_before + 1);
}

TEST(Coherence, DirtyDataForwardedToReader) {
  Rig rig;
  rig.access(0, 0x4000, AccessKind::Write);
  // Reader gets the data (from the owner) and the line becomes shared.
  rig.access(1, 0x4000, AccessKind::Read);
  // Writer can still read its (now S) copy as an L1 hit.
  const Cycle before = rig.eq.now();
  const Cycle t = rig.access(0, 0x4000, AccessKind::Read);
  EXPECT_EQ(t, before);
}

TEST(Coherence, BypassSkipsLlc) {
  sim::EventQueue eq;
  noc::Mesh mesh(2, 2);
  noc::Network net(mesh, eq, {});
  mem::MemControllers mcs(1, {0}, {});
  AlwaysBypass policy;
  CoherentSystem sys(eq, net, mesh, mcs, policy, {}, 4);
  Cycle done = 0;
  sys.access(0, 0x1000, 0x1000, AccessKind::Read, [&] { done = eq.now(); });
  eq.run();
  EXPECT_GT(done, 0u);
  EXPECT_EQ(sys.stats().llc_requests.value(), 0u);
  EXPECT_EQ(sys.stats().bypass_reads.value(), 1u);
  EXPECT_EQ(mcs.mc(0).reads(), 1u);
  EXPECT_EQ(sys.llc_resident_lines(), 0u);
}

// The policy hook runs once per demand reference, before the reference can
// complete, and never for the page walker's loads.
TEST(Coherence, DemandHookRunsOncePerAccess) {
  sim::EventQueue eq;
  noc::Mesh mesh(2, 2);
  noc::Network net(mesh, eq, {});
  mem::MemControllers mcs(1, {0}, {});
  CountingSNuca policy;
  CoherentSystem sys(eq, net, mesh, mcs, policy, {}, 4);
  bool done = false;
  // A miss runs the hook once; the post-fill replay does not run it again.
  sys.access(0, 0x1000, 0x1000, AccessKind::Read, [&] { done = true; });
  EXPECT_EQ(policy.hooks, 1u);
  EXPECT_FALSE(done);
  eq.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(policy.hooks, 1u);
  EXPECT_EQ(sys.stats().l1_misses.value(), 1u);
  // A hit runs it once more and completes before access() returns.
  done = false;
  sys.access(0, 0x1000, 0x1000, AccessKind::Read, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(policy.hooks, 2u);
  EXPECT_EQ(sys.stats().l1_hits.value(), 1u);
  // A page-table load never reaches the hook, as a miss or as a hit.
  const Addr pte = kKernelBase + 0x40;
  for (int i = 0; i < 2; ++i) {
    done = false;
    sys.access(0, pte, pte, AccessKind::Read, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
  }
  EXPECT_EQ(policy.hooks, 2u);
  EXPECT_EQ(sys.stats().l1_misses.value(), 2u);
  EXPECT_EQ(sys.stats().l1_hits.value(), 2u);
}

// Each core maps through its partition's policy: with an app view, core
// 0's misses and demand hooks reach only partition 0's policy and core 3's
// only partition 1's, and set_app_policy swaps partition 1's policy for
// its cores' next miss.
TEST(Coherence, AppViewMapsEachCoreThroughItsPartitionsPolicy) {
  Rig rig;
  CountingSNuca a, b, c;
  rig.sys->set_app_view({CoreMask::first_n(2), CoreMask(0b1100)}, {&a, &b});
  rig.access(0, 0x1000, AccessKind::Read);  // miss
  rig.access(0, 0x1000, AccessKind::Read);  // hit: the hook only
  EXPECT_EQ(a.maps, 1u);
  EXPECT_EQ(a.hooks, 2u);
  EXPECT_EQ(b.maps + b.hooks, 0u);
  rig.access(3, 0x2000, AccessKind::Write);
  EXPECT_EQ(b.maps, 1u);
  EXPECT_EQ(b.hooks, 1u);
  EXPECT_EQ(a.maps, 1u);
  EXPECT_EQ(a.hooks, 2u);

  rig.sys->set_app_policy(1, c);
  rig.access(3, 0x3000, AccessKind::Read);
  EXPECT_EQ(c.maps, 1u);
  EXPECT_EQ(c.hooks, 1u);
  EXPECT_EQ(b.maps, 1u);
  EXPECT_EQ(b.hooks, 1u);
  EXPECT_EQ(a.maps + a.hooks, 3u);
}

TEST(Coherence, AppViewNeedsOnePolicyPerPartition) {
  Rig rig;
  CountingSNuca a;
  EXPECT_THROW(
      rig.sys->set_app_view({CoreMask::first_n(2), CoreMask(0b1100)}, {&a}),
      RequireError);
  EXPECT_THROW(rig.sys->set_app_policy(0, a), RequireError);  // no view
}

TEST(Coherence, FlushL1WritesBackDirtyLines) {
  Rig rig;
  for (Addr a = 0x8000; a < 0x8200; a += 64) rig.access(0, a, AccessKind::Write);
  const auto wb_before = rig.sys->stats().llc_writebacks.value();
  bool flushed = false;
  rig.sys->flush_l1_range(CoreMask::single(0), {0x8000, 0x8200},
                          [&] { flushed = true; });
  rig.eq.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(rig.sys->stats().flush_l1_lines.value(), 8u);
  EXPECT_GT(rig.sys->stats().llc_writebacks.value(), wb_before);
  // After the flush, re-reading misses in L1.
  const auto misses = rig.sys->stats().l1_misses.value();
  rig.access(0, 0x8000, AccessKind::Read);
  EXPECT_EQ(rig.sys->stats().l1_misses.value(), misses + 1);
}

TEST(Coherence, FlushLlcEvictsToMemoryAndBackInvalidates) {
  Rig rig;
  for (Addr a = 0x9000; a < 0x9100; a += 64) rig.access(2, a, AccessKind::Write);
  // Push dirty data into the LLC by flushing the L1 first.
  bool l1done = false;
  rig.sys->flush_l1_range(CoreMask::single(2), {0x9000, 0x9100},
                          [&] { l1done = true; });
  rig.eq.run();
  ASSERT_TRUE(l1done);
  const auto writes_before = rig.mcs.mc(0).writes();
  bool llcdone = false;
  rig.sys->flush_llc_range(BankMask::first_n(4), {0x9000, 0x9100},
                           [&] { llcdone = true; });
  rig.eq.run();
  EXPECT_TRUE(llcdone);
  EXPECT_GT(rig.mcs.mc(0).writes(), writes_before);
  EXPECT_GT(rig.sys->stats().flush_llc_lines.value(), 0u);
  // Fully flushed: next read misses all the way to memory.
  const auto mem_reads = rig.mcs.mc(0).reads();
  rig.access(2, 0x9000, AccessKind::Read);
  EXPECT_EQ(rig.mcs.mc(0).reads(), mem_reads + 1);
}

TEST(Coherence, InclusiveEvictionBackInvalidatesL1) {
  HierarchyConfig small;
  small.llc_bank = {4 * kKiB, 2, 64};  // tiny LLC banks force evictions
  small.l1 = {8 * kKiB, 8, 64};
  Rig rig(small);
  // Stream enough lines through one bank to force LLC evictions.
  for (Addr a = 0; a < 64 * kKiB; a += 64) rig.access(0, a, AccessKind::Read);
  EXPECT_GT(rig.sys->stats().llc_evictions.value(), 0u);
}

TEST(Coherence, MergedMissesAllComplete) {
  Rig rig;
  int done = 0;
  rig.sys->access(0, 0x5000, 0x5000, AccessKind::Read, [&] { ++done; });
  rig.sys->access(0, 0x5000, 0x5000, AccessKind::Read, [&] { ++done; });
  rig.sys->access(0, 0x5040, 0x5040, AccessKind::Read, [&] { ++done; });
  rig.eq.run();
  EXPECT_EQ(done, 3);
}

TEST(Coherence, MshrFullMissesEventuallyCompleteViaLlc) {
  // Structural hazard: with a single L1 MSHR, concurrent misses to distinct
  // lines serialize through back-off retries. Every access must eventually
  // complete — a lost retry would leave done < N and the queue drained.
  HierarchyConfig cfg;
  cfg.l1_mshrs = 1;
  Rig rig(cfg);
  int done = 0;
  for (Addr a = 0x9000; a < 0x9000 + 8 * 64; a += 64)
    rig.sys->access(0, a, a, AccessKind::Read, [&] { ++done; });
  rig.eq.run();
  EXPECT_EQ(done, 8);
  EXPECT_GT(rig.sys->stats().mshr_stalls.value(), 0u);
  EXPECT_EQ(rig.sys->mshr_outstanding(0), 0u);
}

TEST(Coherence, MshrFullMissesEventuallyCompleteViaBypass) {
  // Same hazard on the bypass/memory datapath (no LLC bank involved).
  sim::EventQueue eq;
  noc::Mesh mesh(2, 2);
  noc::Network net(mesh, eq, {});
  mem::MemControllers mcs(1, {0}, {});
  AlwaysBypass policy;
  HierarchyConfig cfg;
  cfg.l1_mshrs = 1;
  CoherentSystem sys(eq, net, mesh, mcs, policy, cfg, 4);
  int done = 0;
  for (Addr a = 0xA000; a < 0xA000 + 8 * 64; a += 64)
    sys.access(0, a, a, AccessKind::Read, [&] { ++done; });
  eq.run();
  EXPECT_EQ(done, 8);
  EXPECT_GT(sys.stats().mshr_stalls.value(), 0u);
  EXPECT_EQ(mcs.mc(0).reads(), 8u);
}

TEST(Coherence, NucaDistanceSampledOnDemand) {
  Rig rig;
  for (Addr a = 0; a < 4096; a += 64) rig.access(0, a, AccessKind::Read);
  EXPECT_GT(rig.sys->stats().nuca_distance.samples(), 0u);
  // On a 2x2 mesh from corner 0: distances are 0,1,1,2 interleaved -> mean 1.
  EXPECT_NEAR(rig.sys->stats().nuca_distance.mean(), 1.0, 0.01);
}
