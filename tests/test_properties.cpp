// Property-based tests (parameterized sweeps) over the substrate's
// structural invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/replacement.hpp"
#include "common/prng.hpp"
#include "mem/page_table.hpp"
#include "noc/mesh.hpp"
#include "nuca/snuca.hpp"
#include "sim/event_queue.hpp"
#include "tdnuca/rrt.hpp"

using namespace tdn;

// --- mesh metric properties -------------------------------------------

class MeshProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MeshProperty, HopsIsAMetric) {
  const auto [w, h] = GetParam();
  noc::Mesh m(w, h);
  const unsigned n = m.tiles();
  for (CoreId a = 0; a < n; ++a) {
    EXPECT_EQ(m.hops(a, a), 0u);
    for (CoreId b = 0; b < n; ++b) {
      EXPECT_EQ(m.hops(a, b), m.hops(b, a));  // symmetry
      for (CoreId c = 0; c < n; ++c) {
        EXPECT_LE(m.hops(a, c), m.hops(a, b) + m.hops(b, c));  // triangle
      }
    }
  }
}

TEST_P(MeshProperty, ClustersPartitionTheMesh) {
  const auto [w, h] = GetParam();
  if (w % 2 != 0 || h % 2 != 0) GTEST_SKIP();
  noc::Mesh m(w, h);
  std::map<unsigned, unsigned> sizes;
  for (CoreId t = 0; t < m.tiles(); ++t) ++sizes[m.cluster_of(t)];
  for (const auto& [cluster, size] : sizes) EXPECT_EQ(size, 4u) << cluster;
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshProperty,
                         ::testing::Values(std::make_pair(2, 2),
                                           std::make_pair(4, 4),
                                           std::make_pair(4, 2),
                                           std::make_pair(8, 4),
                                           std::make_pair(3, 5)));

// --- pseudo-LRU properties --------------------------------------------

class PlruProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlruProperty, VictimAlwaysValidAndNotMru) {
  const unsigned ways = GetParam();
  cache::PseudoLruTree t(ways);
  SplitMix64 rng(GetParam() * 977);
  unsigned last_touched = ways;  // none
  for (int i = 0; i < 2000; ++i) {
    const unsigned v = t.victim();
    ASSERT_LT(v, ways);
    if (ways > 1 && last_touched < ways) {
      EXPECT_NE(v, last_touched);
    }
    last_touched = static_cast<unsigned>(rng.next_below(ways));
    t.touch(last_touched);
  }
}

INSTANTIATE_TEST_SUITE_P(WayCounts, PlruProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// --- cache array random-operation invariants ----------------------------

class ArrayProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ArrayProperty, OccupancyAndResidencyInvariants) {
  struct M {
    int x = 0;
  };
  cache::CacheArray<M> arr({8 * kKiB, GetParam(), 64});
  SplitMix64 rng(99);
  std::set<Addr> resident;
  for (int i = 0; i < 5000; ++i) {
    const Addr line = rng.next_below(512) * 64;
    if (rng.next_below(3) == 0 && resident.count(line)) {
      arr.invalidate(line);
      resident.erase(line);
    } else if (arr.find(line) == nullptr) {
      std::optional<cache::CacheArray<M>::Eviction> ev;
      arr.allocate(line, ev);
      resident.insert(line);
      if (ev) resident.erase(ev->addr);
    } else {
      arr.touch(line);
    }
    ASSERT_EQ(arr.occupied_lines(), resident.size());
    ASSERT_LE(arr.occupied_lines(), arr.capacity_lines());
  }
  // Everything the model says is resident must be findable, and vice versa.
  for (const Addr a : resident) EXPECT_NE(arr.find(a), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Assoc, ArrayProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// --- page table properties ----------------------------------------------

class FragmentationProperty : public ::testing::TestWithParam<double> {};

TEST_P(FragmentationProperty, PiecesTileTheRangeExactly) {
  mem::PageTableConfig cfg;
  cfg.fragmentation = GetParam();
  mem::PageTable pt(cfg);
  SplitMix64 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Addr begin = 0x10000000 + rng.next_below(100) * 4096;
    const Addr bytes = (1 + rng.next_below(64)) * 4096;
    const auto tr = pt.translate_range({begin, begin + bytes});
    Addr covered = 0;
    for (std::size_t i = 0; i < tr.physical_pieces.size(); ++i) {
      EXPECT_FALSE(tr.physical_pieces[i].empty());
      covered += tr.physical_pieces[i].size();
      if (i > 0) {
        // Collapsing is maximal: adjacent pieces are never contiguous.
        EXPECT_NE(tr.physical_pieces[i - 1].end, tr.physical_pieces[i].begin);
      }
    }
    EXPECT_EQ(covered, bytes);
    EXPECT_EQ(tr.pages_walked, bytes / 4096);
  }
}

TEST_P(FragmentationProperty, TranslationIsIdempotent) {
  mem::PageTableConfig cfg;
  cfg.fragmentation = GetParam();
  mem::PageTable pt(cfg);
  const AddrRange vr{0x10000000, 0x10000000 + 32 * 4096};
  const auto first = pt.translate_range(vr);
  const auto second = pt.translate_range(vr);
  ASSERT_EQ(first.physical_pieces.size(), second.physical_pieces.size());
  for (std::size_t i = 0; i < first.physical_pieces.size(); ++i)
    EXPECT_EQ(first.physical_pieces[i], second.physical_pieces[i]);
}

INSTANTIATE_TEST_SUITE_P(Levels, FragmentationProperty,
                         ::testing::Values(0.0, 0.05, 0.15, 0.5, 1.0));

// --- S-NUCA interleave balance -------------------------------------------

class InterleaveProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(InterleaveProperty, PerfectBalanceOverAlignedRanges) {
  const unsigned banks = GetParam();
  std::map<BankId, unsigned> counts;
  const unsigned lines = banks * 64;
  for (Addr a = 0; a < lines * 64ull; a += 64)
    ++counts[nuca::snuca_bank(a, banks)];
  ASSERT_EQ(counts.size(), banks);
  for (const auto& [b, n] : counts) EXPECT_EQ(n, 64u) << b;
}

INSTANTIATE_TEST_SUITE_P(BankCounts, InterleaveProperty,
                         ::testing::Values(4u, 8u, 16u, 12u));

// --- RRT range-lookup properties ----------------------------------------

class RrtProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RrtProperty, LookupAgreesWithLinearScan) {
  const unsigned cap = GetParam();
  tdnuca::Rrt rrt(cap, 1);
  SplitMix64 rng(cap);
  // Shadow model mirroring the RRT's disjoint-trim semantics: a new
  // registration covers only the addresses no older entry already holds,
  // split into pieces, inserted lowest-address first up to capacity.
  std::vector<std::pair<AddrRange, BankMask>> shadow;
  auto subtract = [](std::vector<AddrRange> pieces, const AddrRange& e) {
    std::vector<AddrRange> out;
    for (const AddrRange& p : pieces) {
      if (p.end <= e.begin || e.end <= p.begin) {
        out.push_back(p);
        continue;
      }
      if (p.begin < e.begin) out.push_back(AddrRange{p.begin, e.begin});
      if (e.end < p.end) out.push_back(AddrRange{e.end, p.end});
    }
    return out;
  };
  for (unsigned i = 0; i < cap; ++i) {
    const Addr begin = rng.next_below(1000) * 0x1000;
    const AddrRange r{begin, begin + (1 + rng.next_below(8)) * 0x1000};
    const BankMask m = BankMask::single(static_cast<CoreId>(i % 16));
    rrt.register_range(r, m);
    std::vector<AddrRange> pieces{r};
    for (const auto& e : shadow) pieces = subtract(std::move(pieces), e.first);
    std::sort(pieces.begin(), pieces.end(),
              [](const AddrRange& a, const AddrRange& b) {
                return a.begin < b.begin;
              });
    for (const AddrRange& p : pieces) {
      if (shadow.size() < cap) shadow.push_back({p, m});
    }
  }
  for (int probe = 0; probe < 500; ++probe) {
    const Addr a = rng.next_below(1200) * 0x800;
    const auto got = rrt.lookup(a);
    const auto* expect = [&]() -> const std::pair<AddrRange, BankMask>* {
      for (const auto& e : shadow)
        if (e.first.contains(a)) return &e;
      return nullptr;
    }();
    EXPECT_EQ(got.has_value(), expect != nullptr);
    if (got && expect) {
      EXPECT_EQ(got->prange, expect->first);
      EXPECT_EQ(got->mask, expect->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RrtProperty,
                         ::testing::Values(4u, 16u, 64u));

// --- event queue ordering under random load ------------------------------

TEST(EventQueueProperty, RandomScheduleExecutesInOrder) {
  sim::EventQueue eq;
  SplitMix64 rng(17);
  std::vector<Cycle> executed_at;
  for (int i = 0; i < 1000; ++i) {
    eq.schedule_at(rng.next_below(500), [&] { executed_at.push_back(eq.now()); });
  }
  eq.run();
  ASSERT_EQ(executed_at.size(), 1000u);
  for (std::size_t i = 1; i < executed_at.size(); ++i)
    EXPECT_LE(executed_at[i - 1], executed_at[i]);
}
