// Unit tests: RRT, cluster map, RTCacheDirectory, ISA cost model.
#include <gtest/gtest.h>

#include <set>

#include "noc/mesh.hpp"
#include "tdnuca/cluster_map.hpp"
#include "tdnuca/isa.hpp"
#include "tdnuca/rrt.hpp"
#include "tdnuca/rt_cache_directory.hpp"

using namespace tdn;
using namespace tdn::tdnuca;

TEST(Rrt, RegisterLookupInvalidate) {
  Rrt rrt(4, 1);
  EXPECT_TRUE(rrt.register_range({0x1000, 0x2000}, BankMask::single(3)));
  auto e = rrt.lookup(0x1800);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->mask.sole_bit(), 3u);
  EXPECT_FALSE(rrt.lookup(0x2000).has_value());  // end is exclusive
  EXPECT_EQ(rrt.invalidate_range({0x1000, 0x2000}), 1u);
  EXPECT_FALSE(rrt.lookup(0x1800).has_value());
}

TEST(Rrt, NoReplacementOnOverflow) {
  Rrt rrt(2, 1);
  EXPECT_TRUE(rrt.register_range({0x0000, 0x1000}, BankMask::none()));
  EXPECT_TRUE(rrt.register_range({0x1000, 0x2000}, BankMask::none()));
  // Full: the third range is NOT registered (falls back to S-NUCA).
  EXPECT_FALSE(rrt.register_range({0x2000, 0x3000}, BankMask::none()));
  EXPECT_EQ(rrt.size(), 2u);
  EXPECT_EQ(rrt.overflows(), 1u);
  EXPECT_TRUE(rrt.lookup(0x0800).has_value());
  EXPECT_FALSE(rrt.lookup(0x2800).has_value());
}

TEST(Rrt, InvalidateRemovesOverlapping) {
  Rrt rrt(8, 1);
  rrt.register_range({0x0000, 0x1000}, BankMask::none());
  rrt.register_range({0x1000, 0x2000}, BankMask::none());
  rrt.register_range({0x5000, 0x6000}, BankMask::none());
  EXPECT_EQ(rrt.invalidate_range({0x0800, 0x1800}), 2u);
  EXPECT_EQ(rrt.size(), 1u);
}

TEST(Rrt, OccupancyTracking) {
  Rrt rrt(8, 1);
  rrt.register_range({0, 64}, BankMask::none());
  rrt.register_range({64, 128}, BankMask::none());
  EXPECT_EQ(rrt.max_occupancy(), 2u);
  rrt.invalidate_range({0, 128});
  EXPECT_EQ(rrt.max_occupancy(), 2u);  // high-water mark persists
  EXPECT_EQ(rrt.size(), 0u);
}

TEST(Rrt, CountsLookups) {
  Rrt rrt(4, 2);
  rrt.lookup(0x42);
  rrt.lookup(0x43);
  EXPECT_EQ(rrt.lookups(), 2u);
  EXPECT_EQ(rrt.lookup_latency(), 2u);
}

TEST(ClusterMap, QuadrantsOn4x4) {
  noc::Mesh mesh(4, 4);
  ClusterMap cm(mesh);
  EXPECT_EQ(cm.num_clusters(), 4u);
  EXPECT_EQ(cm.cluster_size(), 4u);
  EXPECT_EQ(cm.cluster_of(0), cm.cluster_of(5));
  EXPECT_EQ(cm.mask_of(0).count(), 4);
  EXPECT_TRUE(cm.mask_of(0).test(0));
  EXPECT_TRUE(cm.mask_of(0).test(5));
}

TEST(ClusterMap, InterleaveCoversClusterBanks) {
  noc::Mesh mesh(4, 4);
  ClusterMap cm(mesh);
  std::set<BankId> used;
  for (Addr line = 0; line < 64 * 16; line += 64)
    used.insert(ClusterMap::bank_for_mask(cm.mask_of(0), line));
  EXPECT_EQ(used.size(), 4u);
  for (BankId b : used) EXPECT_EQ(cm.cluster_of(b), 0u);
}

TEST(ClusterMap, MaskInterleaveMatchesBankFor) {
  noc::Mesh mesh(4, 4);
  ClusterMap cm(mesh);
  const BankMask mask = cm.mask_of(2);
  for (Addr line = 0; line < 64 * 32; line += 64) {
    const BankId via_mask = ClusterMap::bank_for_mask(mask, line);
    EXPECT_EQ(cm.cluster_of(via_mask), 2u);
  }
}

TEST(RtCacheDirectory, EntryLifecycle) {
  RtCacheDirectory dir;
  auto& e = dir.entry(7, {0x1000, 0x2000});
  EXPECT_EQ(e.vrange.begin, 0x1000u);
  e.use_desc = 3;
  // Re-fetching the same dep returns the same entry.
  EXPECT_EQ(dir.entry(7, {0xdead, 0xbeef}).use_desc, 3);
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_NE(dir.find(7), nullptr);
  EXPECT_EQ(dir.find(8), nullptr);
}

TEST(IsaCosts, ScaleWithPagesAndPieces) {
  IsaCostConfig c;
  const Cycle small = isa_rrt_cost(c, 2, 1);
  const Cycle large = isa_rrt_cost(c, 64, 8);
  EXPECT_LT(small, large);
  EXPECT_EQ(large - small, (64 - 2) + 7 * c.per_rrt_slot);
  EXPECT_GT(isa_flush_issue_cost(c, 10), isa_flush_issue_cost(c, 0));
  EXPECT_EQ(isa_rrt_cost(c, 0, 1), c.issue_overhead + c.per_rrt_slot);
}
