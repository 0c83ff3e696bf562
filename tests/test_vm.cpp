// Unit tests for the tdn::vm subsystem: buddy allocator (contiguity,
// puncturing, serialization), multi-size page table (THP policies, huge
// fallbacks, range collapse), two-level TLB, page walker + paging-structure
// caches, the Mmu facade (legacy parity, frame-carrying TLB entries, 1G
// pages), and the end-to-end huge-page registration collapse.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "coherence/coherent_system.hpp"
#include "common/prng.hpp"
#include "harness/runner.hpp"
#include "mem/page_table.hpp"
#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "nuca/snuca.hpp"
#include "sim/event_queue.hpp"
#include "vm/buddy_allocator.hpp"
#include "vm/mmu.hpp"
#include "vm/page_walker.hpp"
#include "vm/tlb_hierarchy.hpp"

using namespace tdn;
using namespace tdn::vm;

namespace {

VmConfig vm_on(ThpPolicy thp = ThpPolicy::Always, double frag = 0.0) {
  VmConfig cfg;
  cfg.enabled = true;
  cfg.thp = thp;
  cfg.fragmentation = frag;
  return cfg;
}

/// Minimal 2x2 coherent hierarchy for walker/Mmu tests.
struct CacheRig {
  sim::EventQueue eq;
  noc::Mesh mesh{2, 2};
  noc::Network net{mesh, eq, {}};
  mem::MemControllers mcs{1, {0}, {}};
  nuca::SNucaPolicy policy{4};
  coherence::CoherentSystem sys{eq, net, mesh, mcs, policy, {}, 4};
};

/// Independent reference for the legacy TLB: true LRU over page numbers,
/// flat miss penalty.
struct FlatLruTlb {
  FlatLruTlb(mem::TlbConfig c, Addr ps) : cfg(c), page_size(ps) {}

  mem::TlbConfig cfg;
  Addr page_size;
  std::list<Addr> lru;  // front = most recent
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  Cycle access(Addr vaddr) {
    const Addr page = vaddr / page_size;
    auto it = std::find(lru.begin(), lru.end(), page);
    if (it != lru.end()) {
      ++hits;
      lru.splice(lru.begin(), lru, it);
      return cfg.hit_latency;
    }
    ++misses;
    if (lru.size() >= cfg.entries) lru.pop_back();
    lru.push_front(page);
    return cfg.hit_latency + cfg.miss_penalty;
  }
};

}  // namespace

// --- buddy allocator -------------------------------------------------------

TEST(VmBuddy, LowestBaseFirstSplitting) {
  BuddyAllocator b(0.0, 1);
  EXPECT_EQ(b.try_allocate(0), 0u);
  EXPECT_EQ(b.try_allocate(0), 1u);
  // The first 2M block is broken by the two frames above; the next full run
  // starts at frame 512.
  EXPECT_EQ(b.try_allocate(9), 512u);
  EXPECT_EQ(b.frames_allocated(), 2u + 512u);
  EXPECT_EQ(b.superblocks(), 1u);
}

TEST(VmBuddy, DeterministicForSameSeed) {
  BuddyAllocator a(0.3, 42), b(0.3, 42);
  for (unsigned i = 0; i < 64; ++i) {
    const unsigned order = (i % 3 == 0) ? 9 : 0;
    EXPECT_EQ(a.try_allocate(order), b.try_allocate(order));
  }
  EXPECT_EQ(a.punctured_frames(), b.punctured_frames());
}

TEST(VmBuddy, FullPunctureDefeatsHugeAllocations) {
  BuddyAllocator b(1.0, 7);
  EXPECT_FALSE(b.try_allocate(9, 1).has_value());
  EXPECT_GT(b.punctured_frames(), 0u);
  // 4K allocations still succeed: punctured blocks lose one frame, not all.
  EXPECT_TRUE(b.try_allocate(0).has_value());
}

TEST(VmBuddy, SerializeRoundTripContinuesIdentically) {
  BuddyAllocator a(0.4, 99), twin(0.4, 99);
  for (unsigned i = 0; i < 16; ++i) {
    a.try_allocate(i % 2 == 0 ? 0 : 9);
    twin.try_allocate(i % 2 == 0 ? 0 : 9);
  }
  BuddyAllocator restored(0.4, 99);
  restored.restore(a.serialize());
  EXPECT_EQ(restored.frames_allocated(), twin.frames_allocated());
  EXPECT_EQ(restored.punctured_frames(), twin.punctured_frames());
  for (unsigned i = 0; i < 32; ++i) {
    const unsigned order = (i % 5 == 0) ? 9 : 0;
    EXPECT_EQ(restored.try_allocate(order), twin.try_allocate(order)) << i;
  }
}

// --- page table ------------------------------------------------------------

TEST(VmPageTable, AlwaysPolicyMapsHugePages) {
  mem::PageTable pt({}, vm_on(ThpPolicy::Always));
  const auto m = pt.touch_page(0x40000000);
  EXPECT_EQ(m.span, kPage2M);
  EXPECT_EQ(m.va_base, 0x40000000u);
  // Every address inside the huge page resolves inside one contiguous frame
  // run, with one mapping.
  const Addr base = pt.translate(0x40000000);
  EXPECT_EQ(pt.translate(0x40000000 + kPage2M - 64), base + kPage2M - 64);
  EXPECT_EQ(pt.mapped_pages(), 1u);
  EXPECT_EQ(pt.pages_of(kPage2M), 1u);
  EXPECT_EQ(pt.pages_of(kPage4K), 0u);
}

TEST(VmPageTable, NeverPolicyMaps4K) {
  mem::PageTable pt({}, vm_on(ThpPolicy::Never));
  EXPECT_EQ(pt.touch_page(0x40000000).span, kPage4K);
  EXPECT_EQ(pt.page_span(0x40000000), kPage4K);
}

TEST(VmPageTable, MadviseGatesHugePages) {
  mem::PageTable pt({}, vm_on(ThpPolicy::Madvise));
  // No advice: base pages.
  EXPECT_EQ(pt.touch_page(0x40000000).span, kPage4K);
  // Advised region covering a full aligned 2M span: huge page.
  pt.advise_huge({0x40200000, 0x40200000 + kPage2M});
  EXPECT_EQ(pt.touch_page(0x40200000 + 0x1234).span, kPage2M);
  // Advice that covers only part of the aligned span stays 4K.
  pt.advise_huge({0x40600000, 0x40600000 + kPage4K});
  EXPECT_EQ(pt.touch_page(0x40600000).span, kPage4K);
}

TEST(VmPageTable, PuncturedPoolFallsBackTo4K) {
  mem::PageTable pt({}, vm_on(ThpPolicy::Always, /*frag=*/1.0));
  EXPECT_EQ(pt.touch_page(0x40000000).span, kPage4K);
  EXPECT_GE(pt.huge_fallbacks(), 1u);
  EXPECT_GT(pt.punctured_frames(), 0u);
}

TEST(VmPageTable, ConflictingBasePagesBlockHugePromotion) {
  mem::PageTable pt({}, vm_on(ThpPolicy::Madvise));
  // A base page materializes inside the 2M span before the advice arrives.
  EXPECT_EQ(pt.touch_page(0x40000000 + 5 * kPage4K).span, kPage4K);
  pt.advise_huge({0x40000000, 0x40000000 + kPage2M});
  // The huge candidate would overlap the existing 4K mapping: fall back.
  EXPECT_EQ(pt.touch_page(0x40000000).span, kPage4K);
  EXPECT_GE(pt.huge_fallbacks(), 1u);
}

TEST(VmPageTable, TranslateRangeCollapsesHugePages) {
  mem::PageTable pt({}, vm_on(ThpPolicy::Always));
  const AddrRange vr{0x40000000, 0x40000000 + 2 * kPage2M};
  const auto tr = pt.translate_range(vr);
  // Two huge pages from an unpunctured buddy pool are physically adjacent:
  // one collapsed piece, two iterations (vs 1024 at 4K grain).
  EXPECT_EQ(tr.pages_walked, 2u);
  ASSERT_EQ(tr.physical_pieces.size(), 1u);
  EXPECT_EQ(tr.physical_pieces[0].size(), vr.size());
}

TEST(VmPageTable, CkptRoundTripContinuesIdentically) {
  mem::PageTable a({}, vm_on()), twin({}, vm_on());
  for (Addr va = 0x40000000; va < 0x40000000 + 8 * kPage2M; va += kPage2M) {
    a.touch_page(va);
    twin.touch_page(va);
  }
  mem::PageTable restored({}, vm_on());
  restored.set_alloc_state(a.alloc_state());
  a.ckpt_drop_mappings();
  twin.ckpt_drop_mappings();
  for (Addr va = 0x80000000; va < 0x80000000 + 4 * kPage2M; va += kPage4K)
    EXPECT_EQ(restored.translate(va), twin.translate(va));
}

// --- two-level TLB ---------------------------------------------------------

TEST(VmTlbHierarchy, HitLatenciesPerLevel) {
  VmConfig cfg = vm_on();
  cfg.l1_4k_entries = 2;
  TlbHierarchy t(cfg);
  EXPECT_FALSE(t.lookup(0x1000).hit);
  t.fill(0x1000, kPage4K);
  const auto l1 = t.lookup(0x1800);
  EXPECT_TRUE(l1.hit);
  EXPECT_EQ(l1.latency, cfg.l1_latency);
  // Evict 0x1000 from the 2-entry L1; it stays in the unified L2.
  t.fill(0x2000, kPage4K);
  t.fill(0x3000, kPage4K);
  const auto l2 = t.lookup(0x1000);
  EXPECT_TRUE(l2.hit);
  EXPECT_EQ(l2.latency, cfg.l1_latency + cfg.l2_latency);
  EXPECT_EQ(t.l2_hits(), 1u);
  // The L2 hit refilled the 4K L1 array.
  EXPECT_EQ(t.lookup(0x1000).latency, cfg.l1_latency);
}

TEST(VmTlbHierarchy, MixedSpanLookup) {
  TlbHierarchy t(vm_on());
  t.fill(0x40000000, kPage2M);
  EXPECT_TRUE(t.lookup(0x40000000 + kPage2M - 64).hit);
  EXPECT_FALSE(t.lookup(0x40000000 + kPage2M).hit);
  EXPECT_EQ(t.hits(), 1u);
  EXPECT_EQ(t.misses(), 1u);
}

TEST(VmTlbHierarchy, ShootdownDropsEveryLevel) {
  TlbHierarchy t(vm_on());
  t.fill(0x5000, kPage4K);
  t.invalidate_page(0x5800);
  EXPECT_EQ(t.shootdowns(), 1u);
  EXPECT_FALSE(t.lookup(0x5000).hit);
  t.invalidate_page(0x5000);  // absent: not counted
  EXPECT_EQ(t.shootdowns(), 1u);
}

// --- page walker -----------------------------------------------------------

TEST(VmWalker, PscShortensWarmWalks) {
  CacheRig rig;
  VmConfig cfg = vm_on();
  PageWalker w(0, rig.eq, &rig.sys, cfg);
  // Cold 4K walk: all four radix levels load.
  const Cycle cold = w.charge_walk(0x40000000, kPage4K);
  EXPECT_EQ(cold, cfg.psc_latency + 4 * cfg.walk_charge_per_level);
  EXPECT_EQ(w.walk_loads(), 4u);
  // Adjacent page: the PDE is cached, one load.
  const Cycle warm = w.charge_walk(0x40001000, kPage4K);
  EXPECT_EQ(warm, cfg.psc_latency + 1 * cfg.walk_charge_per_level);
  EXPECT_EQ(w.psc_hits(), 1u);
  rig.eq.run();  // drain the fire-and-forget PTE loads
  EXPECT_GT(rig.sys.stats().l1_misses.value(), 0u);
}

TEST(VmWalker, HugePagesNeedFewerLevels) {
  CacheRig rig;
  VmConfig cfg = vm_on();
  PageWalker w(0, rig.eq, &rig.sys, cfg);
  w.charge_walk(0x40000000, kPage2M);
  EXPECT_EQ(w.walk_loads(), 3u);  // leaf is the PDE: levels 4,3,2
  rig.eq.run();
}

TEST(VmWalker, DemandWalkTravelsTheHierarchy) {
  CacheRig rig;
  PageWalker w(0, rig.eq, &rig.sys, vm_on());
  Cycle walk_lat = 0;
  w.walk(0x40000000, kPage4K, [&](Cycle c) { walk_lat = c; });
  rig.eq.run();
  EXPECT_GT(walk_lat, 0u);
  EXPECT_EQ(w.walks(), 1u);
  EXPECT_EQ(w.walk_cycles(), walk_lat);
  // Four dependent PTE loads went through the caches to memory.
  EXPECT_EQ(rig.sys.stats().l1_misses.value(), 4u);
}

// --- Mmu facade ------------------------------------------------------------

TEST(VmMmu, LegacyModeMatchesFlatTlb) {
  sim::EventQueue eq;
  mem::PageTable pt_mmu, pt_ref;
  mem::TlbConfig tcfg;
  tcfg.entries = 2;  // small enough that the sequence below evicts
  Mmu mmu(0, eq, nullptr, pt_mmu, tcfg, {});
  FlatLruTlb ref(tcfg, pt_ref.page_size());
  const Addr vas[] = {0x1000, 0x2000, 0x1008, 0x90000, 0x1010, 0x2010};
  for (const Addr va : vas) {
    Cycle got = kNeverCycle;
    Addr pa = 0;
    mmu.translate(va, [&](Cycle c, Addr p) {
      got = c;
      pa = p;
    });
    EXPECT_EQ(got, ref.access(va)) << std::hex << va;  // synchronous
    EXPECT_EQ(pa, pt_ref.translate(va));
    EXPECT_EQ(mmu.charge_translation(va), ref.access(va));
  }
  EXPECT_EQ(mmu.tlb_hits(), ref.hits);
  EXPECT_EQ(mmu.tlb_misses(), ref.misses);
}

TEST(VmMmu, VmModeMissWalksThenHits) {
  CacheRig rig;
  mem::PageTable pt({}, vm_on());
  Mmu mmu(0, rig.eq, &rig.sys, pt, {}, vm_on());
  Cycle miss_lat = kNeverCycle;
  mmu.translate(0x40000000, [&](Cycle c, Addr) { miss_lat = c; });
  rig.eq.run();
  ASSERT_NE(miss_lat, kNeverCycle);
  EXPECT_GT(miss_lat, vm_on().l1_latency + vm_on().l2_latency);
  EXPECT_EQ(mmu.tlb_misses(), 1u);
  EXPECT_EQ(mmu.walks(), 1u);
  // Same huge page, different offset: synchronous L1 hit now.
  Cycle hit_lat = kNeverCycle;
  mmu.translate(0x40000000 + 0x5000, [&](Cycle c, Addr) { hit_lat = c; });
  EXPECT_EQ(hit_lat, vm_on().l1_latency);
  EXPECT_EQ(mmu.tlb_hits(), 1u);
}

TEST(VmMmu, TlbHitsReturnThePageTableFrame) {
  // A TLB entry carries its frame, so a cached frame must never go stale:
  // every translation equals the page table's, across evictions, L2
  // refills, shootdowns and a checkpoint cold reset that re-maps pages.
  mem::PageTableConfig fragmented;
  fragmented.fragmentation = 0.5;  // neighbouring frames not contiguous
  const struct {
    const char* name;
    mem::PageTableConfig pt;
    VmConfig vm;
  } models[] = {{"legacy", fragmented, VmConfig{}},
                {"vm-never", {}, vm_on(ThpPolicy::Never)},
                {"vm-always", {}, vm_on(ThpPolicy::Always)}};
  constexpr Addr kBase = 0x40000000;
  for (const auto& model : models) {
    SCOPED_TRACE(model.name);
    CacheRig rig;
    mem::PageTable pt(model.pt, model.vm);
    Mmu mmu(0, rig.eq, &rig.sys, pt, {}, model.vm);
    const auto translate = [&](Addr va) {
      Addr pa = 0;
      bool done = false;
      mmu.translate(va, [&](Cycle, Addr p) {
        pa = p;
        done = true;
      });
      rig.eq.run();  // a vm-mode miss completes after its walk
      EXPECT_TRUE(done);
      Addr expect = 0;
      EXPECT_TRUE(pt.try_translate(va, expect));
      EXPECT_EQ(pa, expect) << std::hex << va;
      return pa;
    };
    // 320 base pages spread over 16 huge-page spans, so THP always maps
    // several 2M pages.
    SplitMix64 rng(17);
    std::vector<Addr> vas;
    for (unsigned i = 0; i < 2000; ++i) {
      const Addr page = rng.next_below(320);
      const Addr va = kBase + (page % 16) * kPage2M + (page / 16) * kPage4K +
                      rng.next_below(kPage4K);
      switch (rng.next_below(8)) {
        case 0:
          mmu.invalidate_page(va);
          break;
        case 1:
          mmu.charge_translation(va);
          rig.eq.run();
          break;
        default:
          translate(va);
          vas.push_back(va);
      }
    }
    EXPECT_GT(mmu.tlb_hits(), 0u);
    EXPECT_GT(mmu.tlb_shootdowns(), 0u);

    // Checkpoint cold normalization, as Machine::cold_normalize does it:
    // fresh mappings from the continuing allocator, so every frame moves.
    std::vector<Addr> before;
    for (const Addr va : vas) before.push_back(translate(va));
    mmu.ckpt_cold_reset();
    pt.ckpt_drop_mappings();
    for (std::size_t i = 0; i < vas.size(); ++i)
      EXPECT_NE(translate(vas[i]), before[i]) << std::hex << vas[i];
  }
}

// --- end to end ------------------------------------------------------------

TEST(VmEndToEnd, HugePagesCollapseRegistration) {
  harness::RunConfig never;
  never.workload = "randtouch";
  never.policy = system::PolicyKind::TdNuca;
  never.params.scale = 0.125;
  never.sys.vm = vm_on(ThpPolicy::Never);
  harness::RunConfig always = never;
  always.sys.vm.thp = ThpPolicy::Always;

  const auto rn = harness::run_experiment(never, /*use_cache=*/false);
  const auto ra = harness::run_experiment(always, /*use_cache=*/false);
  EXPECT_GT(ra.get("vm.pages_2m"), 0.0);
  EXPECT_EQ(ra.get("vm.pages_4k"), 0.0);
  // The ISSUE headline: 2M pages collapse the iterative RRT registration
  // and the TLB+walk overhead.
  EXPECT_LT(ra.get("tdnuca.translate_pages") * 50,
            rn.get("tdnuca.translate_pages"));
  EXPECT_LT(ra.get("tdnuca.translate_cycles"),
            rn.get("tdnuca.translate_cycles"));
  EXPECT_LT(ra.get("tlb.misses"), rn.get("tlb.misses"));
  EXPECT_LT(ra.get("vm.walk_loads"), rn.get("vm.walk_loads"));
  EXPECT_LT(ra.get("sim.cycles"), rn.get("sim.cycles"));
}
