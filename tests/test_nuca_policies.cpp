// Unit tests: S-NUCA interleaving, TD-NUCA hardware mapping, R-NUCA page
// classification state machine.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/page_table.hpp"
#include "noc/mesh.hpp"
#include "nuca/rnuca.hpp"
#include "nuca/snuca.hpp"
#include "nuca/tdnuca_policy.hpp"
#include "sim/event_queue.hpp"
#include "vm/mmu.hpp"

using namespace tdn;
using namespace tdn::nuca;

TEST(SNuca, InterleavesAcrossAllBanks) {
  SNucaPolicy p(16);
  std::set<BankId> used;
  for (Addr a = 0; a < 64 * 64; a += 64)
    used.insert(p.map(0, a, a, AccessKind::Read).bank);
  EXPECT_EQ(used.size(), 16u);
  // Mapping is requester-independent.
  EXPECT_EQ(p.map(0, 0x40, 0x40, AccessKind::Read).bank,
            p.map(9, 0x40, 0x40, AccessKind::Read).bank);
}

TEST(TdNucaPolicy, FallsBackToSNucaOnRrtMiss) {
  noc::Mesh mesh(4, 4);
  TdNucaPolicy p(mesh, 16, {});
  const auto d = p.map(2, 0x1000, 0x1000, AccessKind::Read);
  EXPECT_EQ(d.kind, MapDecision::Kind::Bank);
  EXPECT_EQ(d.bank, snuca_bank(0x1000, 16));
  EXPECT_EQ(d.lookup_latency, 1u);  // RRT consulted on every miss
  EXPECT_EQ(p.rrt_misses(), 1u);
}

TEST(TdNucaPolicy, ZeroMaskBypasses) {
  noc::Mesh mesh(4, 4);
  TdNucaPolicy p(mesh, 16, {});
  p.rrt(3).register_range({0x1000, 0x2000}, BankMask::none());
  const auto d = p.map(3, 0x1800, 0x1800, AccessKind::Read);
  EXPECT_EQ(d.kind, MapDecision::Kind::Bypass);
  // Other cores' RRTs are independent.
  EXPECT_EQ(p.map(4, 0x1800, 0x1800, AccessKind::Read).kind,
            MapDecision::Kind::Bank);
}

TEST(TdNucaPolicy, SingleBitMapsToThatBank) {
  noc::Mesh mesh(4, 4);
  TdNucaPolicy p(mesh, 16, {});
  p.rrt(0).register_range({0x1000, 0x2000}, BankMask::single(7));
  const auto d = p.map(0, 0x1040, 0x1040, AccessKind::Write);
  EXPECT_EQ(d.kind, MapDecision::Kind::Bank);
  EXPECT_EQ(d.bank, 7u);
}

TEST(TdNucaPolicy, FourBitMaskInterleavesWithinCluster) {
  noc::Mesh mesh(4, 4);
  TdNucaPolicy p(mesh, 16, {});
  const BankMask cluster = p.clusters().mask_of(1);
  p.rrt(0).register_range({0, 0x10000}, cluster);
  std::set<BankId> used;
  for (Addr a = 0; a < 64 * 16; a += 64)
    used.insert(p.map(0, a, a, AccessKind::Read).bank);
  EXPECT_EQ(used.size(), 4u);
  for (BankId b : used) EXPECT_TRUE(cluster.test(b));
}

TEST(TdNucaPolicy, LatencyConfigurable) {
  noc::Mesh mesh(4, 4);
  TdNucaConfig cfg;
  cfg.rrt_latency = 3;
  TdNucaPolicy p(mesh, 16, cfg);
  EXPECT_EQ(p.map(0, 0, 0, AccessKind::Read).lookup_latency, 3u);
}

// S-, R- and TD-NUCA start out owning the whole machine; colocation and
// serving narrow the partition, which can never lose its last bank.
TEST(Partition, PoliciesStartWithTheWholeMachine) {
  noc::Mesh mesh(4, 4);
  mem::PageTable pt;
  SNucaPolicy s(16);
  RNucaPolicy r(mesh, 16, pt);
  TdNucaPolicy t(mesh, 16, {});
  const std::vector<const MappingPolicy*> policies{&s, &r, &t};
  for (const MappingPolicy* p : policies) {
    EXPECT_EQ(p->bank_partition(), BankMask::first_n(16)) << p->name();
    EXPECT_EQ(p->core_partition(), CoreMask::first_n(16)) << p->name();
  }
}

TEST(Partition, EmptyBankMaskIsRejected) {
  SNucaPolicy p(16);
  EXPECT_THROW(p.set_partition(BankMask::none(), CoreMask::none()),
               RequireError);
  EXPECT_EQ(p.bank_partition(), BankMask::first_n(16));
  // A narrowed partition interleaves over its own banks only.
  p.set_partition(BankMask(0x00f0), CoreMask(0x00f0));
  std::set<BankId> used;
  for (Addr a = 0; a < 64 * 64; a += 64)
    used.insert(p.map(0, a, a, AccessKind::Read).bank);
  EXPECT_EQ(used, (std::set<BankId>{4, 5, 6, 7}));
}

namespace {
struct RNucaRig {
  noc::Mesh mesh{4, 4};
  mem::PageTable pt;
  RNucaPolicy p{mesh, 16, pt};
};
}  // namespace

TEST(RNuca, FirstTouchIsPrivateToLocalBank) {
  RNucaRig rig;
  rig.p.on_access(5, 0x10000000, AccessKind::Read);
  const Addr pa = rig.pt.translate(0x10000000);
  EXPECT_EQ(rig.p.map(5, 0x10000000, pa, AccessKind::Read).bank, 5u);
  const auto c = rig.p.census();
  EXPECT_EQ(c.private_pages, 1u);
}

TEST(RNuca, SecondCoreReadMakesSharedRO) {
  RNucaRig rig;
  rig.p.on_access(0, 0x10000000, AccessKind::Read);
  rig.p.on_access(1, 0x10000000, AccessKind::Read);
  const auto c = rig.p.census();
  EXPECT_EQ(c.shared_ro_pages, 1u);
  EXPECT_EQ(rig.p.reclassifications(), 1u);
  // Shared-RO pages map within the requester's quadrant cluster.
  const Addr pa = rig.pt.translate(0x10000000);
  const BankId b = rig.p.map(1, 0x10000000, pa, AccessKind::Read).bank;
  EXPECT_EQ(rig.mesh.cluster_of(b), rig.mesh.cluster_of(1));
}

TEST(RNuca, WrittenThenSharedBecomesShared) {
  RNucaRig rig;
  rig.p.on_access(0, 0x10000000, AccessKind::Write);
  rig.p.on_access(1, 0x10000000, AccessKind::Read);
  EXPECT_EQ(rig.p.census().shared_pages, 1u);
  const Addr pa = rig.pt.translate(0x10000000);
  EXPECT_EQ(rig.p.map(1, 0x10000000, pa, AccessKind::Read).bank,
            snuca_bank(pa, 16));
}

TEST(RNuca, WriteToSharedRODemotes) {
  RNucaRig rig;
  rig.p.on_access(0, 0x10000000, AccessKind::Read);
  rig.p.on_access(1, 0x10000000, AccessKind::Read);  // -> SharedRO
  ASSERT_EQ(rig.p.census().shared_ro_pages, 1u);
  rig.p.on_access(2, 0x10000000, AccessKind::Write);
  EXPECT_EQ(rig.p.census().shared_pages, 1u);
  EXPECT_EQ(rig.p.reclassifications(), 2u);
}

TEST(RNuca, SharedNeverReturnsToPrivate) {
  RNucaRig rig;
  rig.p.on_access(0, 0x10000000, AccessKind::Write);
  rig.p.on_access(1, 0x10000000, AccessKind::Write);
  // Even after core 1 becomes the only user, the page stays Shared
  // (the key limitation TD-NUCA addresses, paper Sec. II-C).
  for (int i = 0; i < 10; ++i)
    rig.p.on_access(1, 0x10000000, AccessKind::Write);
  EXPECT_EQ(rig.p.census().shared_pages, 1u);
  EXPECT_EQ(rig.p.census().private_pages, 0u);
}

TEST(RNuca, TlbShootdownOnReclassification) {
  RNucaRig rig;
  sim::EventQueue eq;
  vm::Mmu mmu0(0, eq, nullptr, rig.pt, {}, {});
  vm::Mmu mmu1(1, eq, nullptr, rig.pt, {}, {});
  rig.p.set_mmus({&mmu0, &mmu1});
  mmu0.charge_translation(0x10000000);
  rig.p.on_access(0, 0x10000000, AccessKind::Read);
  rig.p.on_access(1, 0x10000000, AccessKind::Read);
  // Previous owner shot down: its next translation of the page misses.
  const std::uint64_t misses = mmu0.tlb_misses();
  mmu0.charge_translation(0x10000000);
  EXPECT_EQ(mmu0.tlb_misses(), misses + 1);
  EXPECT_EQ(mmu0.tlb_shootdowns(), 1u);
}

TEST(RNuca, DistinctPagesClassifyIndependently) {
  RNucaRig rig;
  rig.p.on_access(0, 0x10000000, AccessKind::Read);
  rig.p.on_access(0, 0x10002000, AccessKind::Write);
  rig.p.on_access(3, 0x10002000, AccessKind::Read);
  const auto c = rig.p.census();
  EXPECT_EQ(c.private_pages, 1u);
  EXPECT_EQ(c.shared_pages, 1u);
}
