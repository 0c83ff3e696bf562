// Focused tests of flush-engine corner cases: flushes racing in-flight
// coherence transactions, flush pacing, and bypass-line flushes.
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
  Rig() { sys = std::make_unique<CoherentSystem>(eq, net, mesh, mcs, policy,
                                                 cfg, 4); }
};
}  // namespace

TEST(FlushSemantics, FlushDefersForInFlightTransaction) {
  Rig rig;
  // Warm the line into the LLC, flush the L1 copy so a later access misses
  // in L1 but hits the (dirty) LLC.
  bool warm = false;
  rig.sys->access(0, 0x1000, 0x1000, AccessKind::Write,
                  [&] { warm = true; });
  rig.eq.run();
  ASSERT_TRUE(warm);
  bool l1_flushed = false;
  rig.sys->flush_l1_range(CoreMask::single(0), {0x1000, 0x1040},
                          [&] { l1_flushed = true; });
  rig.eq.run();
  ASSERT_TRUE(l1_flushed);

  // Launch a demand access and, while its bank transaction is in flight,
  // flush the same line from the LLC: the flush must defer behind the
  // blocked line and both must complete.
  bool access_done = false;
  bool flush_done = false;
  rig.sys->access(1, 0x1000, 0x1000, AccessKind::Read,
                  [&] { access_done = true; });
  rig.eq.schedule_at(rig.eq.now() + 5, [&] {
    rig.sys->flush_llc_range(BankMask::first_n(4), {0x1000, 0x1040},
                             [&] { flush_done = true; });
  });
  rig.eq.run();
  EXPECT_TRUE(access_done);
  EXPECT_TRUE(flush_done);
  // The line is gone from the LLC afterwards.
  const auto reads_before = rig.mcs.mc(0).reads();
  bool refetch = false;
  rig.sys->access(2, 0x1000, 0x1000, AccessKind::Read,
                  [&] { refetch = true; });
  rig.eq.run();
  EXPECT_TRUE(refetch);
  EXPECT_EQ(rig.mcs.mc(0).reads(), reads_before + 1);
}

TEST(FlushSemantics, WritebacksArePacedByScanRate) {
  Rig rig;
  // Dirty 32 lines in core 0's L1.
  for (Addr a = 0x8000; a < 0x8000 + 32 * 64; a += 64) {
    bool done = false;
    rig.sys->access(0, a, a, AccessKind::Write, [&] { done = true; });
    rig.eq.run();
    ASSERT_TRUE(done);
  }
  const Cycle start = rig.eq.now();
  bool flushed = false;
  rig.sys->flush_l1_range(CoreMask::single(0), {0x8000, 0x8000 + 32 * 64},
                          [&] { flushed = true; });
  rig.eq.run();
  ASSERT_TRUE(flushed);
  // 32 lines at flush_lines_per_cycle=1 cannot finish faster than the scan.
  EXPECT_GE(rig.eq.now() - start, 32u / rig.cfg.flush_lines_per_cycle);
}

TEST(FlushSemantics, FlushEngineBusyAccounted) {
  Rig rig;
  bool done = false;
  rig.sys->access(3, 0x9000, 0x9000, AccessKind::Write,
                  [&] { done = true; });
  rig.eq.run();
  ASSERT_TRUE(done);
  ASSERT_EQ(rig.sys->flush_busy_cycles(3), 0u);
  rig.sys->flush_l1_range(CoreMask::single(3), {0x9000, 0xA000}, [] {});
  rig.eq.run();
  EXPECT_GT(rig.sys->flush_busy_cycles(3), 0u);
}

TEST(FlushSemantics, EmptyRangeCompletesImmediately) {
  Rig rig;
  bool done = false;
  rig.sys->flush_l1_range(CoreMask::single(0), {0x1000, 0x1000},
                          [&] { done = true; });
  rig.eq.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.sys->stats().flush_l1_lines.value(), 0u);
}

TEST(FlushSemantics, FlushOfCleanLinesSendsNoWritebacks) {
  Rig rig;
  for (Addr a = 0xA000; a < 0xA200; a += 64) {
    bool done = false;
    rig.sys->access(1, a, a, AccessKind::Read, [&] { done = true; });
    rig.eq.run();
    ASSERT_TRUE(done);
  }
  const auto wb_before = rig.sys->stats().flush_writebacks.value();
  rig.sys->flush_l1_range(CoreMask::single(1), {0xA000, 0xA200}, [] {});
  rig.eq.run();
  EXPECT_EQ(rig.sys->stats().flush_writebacks.value(), wb_before);
  EXPECT_EQ(rig.sys->stats().flush_l1_lines.value(), 8u);
}
