// Unit tests: virtual space, page table (first touch + fragmentation +
// range collapse), TLB, DRAM timing.
#include <gtest/gtest.h>

#include "mem/address_space.hpp"
#include "mem/dram.hpp"
#include "mem/page_table.hpp"
#include "sim/event_queue.hpp"
#include "vm/mmu.hpp"
#include "vm/tlb_hierarchy.hpp"

using namespace tdn;
using namespace tdn::mem;

TEST(VirtualSpace, AlignedBumpAllocation) {
  VirtualSpace vs;
  const AddrRange a = vs.allocate(100, 64, "a");
  const AddrRange b = vs.allocate(64, 4096, "b");
  EXPECT_EQ(a.begin % 64, 0u);
  EXPECT_EQ(b.begin % 4096, 0u);
  EXPECT_GE(b.begin, a.end);
  EXPECT_EQ(vs.regions().size(), 2u);
  EXPECT_GT(vs.footprint(), 0u);
}

TEST(VirtualSpace, RejectsBadArgs) {
  VirtualSpace vs;
  EXPECT_THROW(vs.allocate(0), RequireError);
  EXPECT_THROW(vs.allocate(64, 48), RequireError);  // not pow2
  EXPECT_THROW(vs.allocate(64, 32), RequireError);  // below line size
}

TEST(PageTable, FirstTouchIsStable) {
  PageTable pt;
  const Addr p1 = pt.translate(0x10000000);
  const Addr p2 = pt.translate(0x10000000 + 100);
  EXPECT_EQ(p2 - p1, 100u);  // same page, same frame
  EXPECT_EQ(pt.translate(0x10000000), p1);
  EXPECT_EQ(pt.mapped_pages(), 1u);
}

TEST(PageTable, TryTranslateDoesNotAllocate) {
  PageTable pt;
  Addr pa = 0;
  EXPECT_FALSE(pt.try_translate(0x20000000, pa));
  EXPECT_EQ(pt.mapped_pages(), 0u);
  pt.translate(0x20000000);
  EXPECT_TRUE(pt.try_translate(0x20000000, pa));
}

TEST(PageTable, DeterministicForSameSeed) {
  PageTableConfig cfg;
  PageTable a(cfg), b(cfg);
  for (Addr va = 0x10000000; va < 0x10000000 + 64 * 4096; va += 4096)
    EXPECT_EQ(a.translate(va), b.translate(va));
}

TEST(PageTable, ZeroFragmentationIsContiguous) {
  PageTableConfig cfg;
  cfg.fragmentation = 0.0;
  PageTable pt(cfg);
  const AddrRange vr{0x10000000, 0x10000000 + 16 * 4096};
  const auto tr = pt.translate_range(vr);
  ASSERT_EQ(tr.physical_pieces.size(), 1u);
  EXPECT_EQ(tr.physical_pieces[0].size(), vr.size());
  EXPECT_EQ(tr.pages_walked, 16u);
}

TEST(PageTable, FragmentationSplitsRanges) {
  PageTableConfig cfg;
  cfg.fragmentation = 0.5;
  PageTable pt(cfg);
  const AddrRange vr{0x10000000, 0x10000000 + 64 * 4096};
  const auto tr = pt.translate_range(vr);
  EXPECT_GT(tr.physical_pieces.size(), 1u);
  // The pieces always cover exactly the range's bytes.
  Addr total = 0;
  for (const auto& p : tr.physical_pieces) total += p.size();
  EXPECT_EQ(total, vr.size());
}

TEST(PageTable, SubPageRangeClipping) {
  PageTableConfig cfg;
  cfg.fragmentation = 0.0;
  PageTable pt(cfg);
  // Range straddling two pages with byte offsets.
  const AddrRange vr{0x10000000 + 100, 0x10000000 + 4096 + 200};
  const auto tr = pt.translate_range(vr);
  Addr total = 0;
  for (const auto& p : tr.physical_pieces) total += p.size();
  EXPECT_EQ(total, vr.size());
  EXPECT_EQ(tr.pages_walked, 2u);
}

TEST(PageTable, ZeroLengthRange) {
  PageTable pt;
  const auto tr = pt.translate_range({0x10000000, 0x10000000});
  EXPECT_TRUE(tr.physical_pieces.empty());
  EXPECT_EQ(tr.pages_walked, 0u);
  EXPECT_EQ(pt.mapped_pages(), 0u);  // nothing allocated
}

TEST(PageTable, UnalignedRangeWithinOnePage) {
  PageTable pt;
  const AddrRange vr{0x10000000 + 100, 0x10000000 + 300};
  const auto tr = pt.translate_range(vr);
  ASSERT_EQ(tr.physical_pieces.size(), 1u);
  EXPECT_EQ(tr.physical_pieces[0].size(), 200u);
  EXPECT_EQ(tr.pages_walked, 1u);
  // The piece carries the in-page byte offset of the virtual begin.
  EXPECT_EQ(tr.physical_pieces[0].begin % 4096, 100u);
}

TEST(PageTable, FullFragmentationBreaksEveryPage) {
  PageTableConfig cfg;
  cfg.fragmentation = 1.0;
  PageTable pt(cfg);
  const AddrRange vr{0x10000000, 0x10000000 + 8 * 4096};
  const auto tr = pt.translate_range(vr);
  // Every boundary is a physical break: one piece per page walked.
  EXPECT_EQ(tr.physical_pieces.size(), tr.pages_walked);
  EXPECT_EQ(tr.pages_walked, 8u);
}

// Property: for arbitrary (mis)aligned ranges under fragmentation, the
// pieces exactly tile the virtual range in order, each piece lies within
// the range's translation, and pages_walked matches the page stepping.
TEST(PageTable, PiecesTileRangeProperty) {
  PageTableConfig cfg;
  cfg.fragmentation = 0.5;
  PageTable pt(cfg);
  const Addr offs[] = {0, 1, 100, 4095, 4096 + 17};
  const Addr lens[] = {1, 4095, 4096, 10 * 4096 + 33, 64 * 4096 - 1};
  Addr base = 0x20000000;
  for (const Addr off : offs) {
    for (const Addr len : lens) {
      const AddrRange vr{base + off, base + off + len};
      const auto tr = pt.translate_range(vr);
      Addr covered = 0;
      for (const auto& p : tr.physical_pieces) {
        EXPECT_GT(p.size(), 0u);
        covered += p.size();
      }
      EXPECT_EQ(covered, vr.size()) << off << "+" << len;
      const Addr first = vr.begin / 4096, last = (vr.end - 1) / 4096;
      EXPECT_EQ(tr.pages_walked, last - first + 1) << off << "+" << len;
      // Byte-for-byte: each address translates into the piece covering it.
      Addr va = vr.begin;
      for (const auto& p : tr.physical_pieces) {
        EXPECT_EQ(pt.translate(va), p.begin);
        va += p.size();
      }
      base += kMiB;  // fresh pages for the next shape
    }
  }
}

TEST(Tlb, HitAfterMiss) {
  sim::EventQueue eq;
  PageTable pt;
  vm::Mmu mmu(0, eq, nullptr, pt,
              {.entries = 4, .hit_latency = 1, .miss_penalty = 20}, {});
  const auto latency = [&mmu](Addr va) {
    Cycle lat = kNeverCycle;
    mmu.translate(va, [&lat](Cycle c, Addr) { lat = c; });  // synchronous
    return lat;
  };
  EXPECT_EQ(latency(0x1000), 21u);  // miss
  EXPECT_EQ(latency(0x1004), 1u);   // hit, same page
  EXPECT_EQ(mmu.tlb_hits(), 1u);
  EXPECT_EQ(mmu.tlb_misses(), 1u);
}

TEST(Tlb, LruEviction) {
  vm::TlbHierarchy tlb({.entries = 2, .hit_latency = 1, .miss_penalty = 20},
                       4096);
  const auto access = [&tlb](Addr va) {
    if (!tlb.lookup(va).hit) tlb.fill(align_down(va, 4096), 4096);
  };
  access(0x1000);
  access(0x2000);
  access(0x1000);  // touch page 1 -> page 2 is LRU
  access(0x3000);  // evicts page 2
  EXPECT_TRUE(tlb.lookup(0x1000).hit);
  EXPECT_FALSE(tlb.lookup(0x2000).hit);
  EXPECT_TRUE(tlb.lookup(0x3000).hit);
}

TEST(Tlb, Shootdown) {
  vm::TlbHierarchy tlb(TlbConfig{}, 4096);
  tlb.fill(0x5000, 4096);
  EXPECT_TRUE(tlb.lookup(0x5000).hit);
  tlb.invalidate_page(0x5008);
  EXPECT_FALSE(tlb.lookup(0x5000).hit);
  EXPECT_EQ(tlb.shootdowns(), 1u);
  tlb.invalidate_page(0x5000);  // absent: no-op
  EXPECT_EQ(tlb.shootdowns(), 1u);
}

TEST(Dram, LatencyAndBandwidth) {
  MemController mc({.access_latency = 100, .service_interval = 4});
  EXPECT_EQ(mc.request(0, AccessKind::Read), 100u);
  // Second request one cycle later queues behind the service interval.
  EXPECT_EQ(mc.request(1, AccessKind::Read), 104u);
  EXPECT_EQ(mc.reads(), 2u);
}

TEST(Dram, IdleGapResetsQueue) {
  MemController mc({.access_latency = 100, .service_interval = 4});
  mc.request(0, AccessKind::Write);
  EXPECT_EQ(mc.request(1000, AccessKind::Read), 1100u);
  EXPECT_EQ(mc.writes(), 1u);
}

TEST(MemControllers, InterleaveCoversAll) {
  MemControllers mcs(4, {0, 3, 12, 15});
  bool used[4] = {};
  for (Addr line = 0; line < 64 * 64; line += 64) used[mcs.index_for(line)] = true;
  for (bool u : used) EXPECT_TRUE(u);
  EXPECT_EQ(mcs.tile_of(0), 0u);
  EXPECT_EQ(mcs.tile_of(3), 15u);
}

TEST(MemControllers, RejectsMismatchedTiles) {
  EXPECT_THROW(MemControllers(2, {0}), RequireError);
}
