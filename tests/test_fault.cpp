// Tests of the tdn::fault subsystem: plan DSL parsing, HealthState
// semantics, RRT degradation hooks and the register_range overlap-split
// regression, the no-progress watchdog, end-to-end degraded runs, and the
// serial/parallel bit-identity of fault runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/require.hpp"
#include "fault/fault_plan.hpp"
#include "fault/health.hpp"
#include "fault/watchdog.hpp"
#include "harness/runner.hpp"
#include "harness/sweep_runner.hpp"
#include "sim/event_queue.hpp"
#include "tdnuca/rrt.hpp"

using namespace tdn;
using namespace tdn::fault;

// --- fault plan DSL ------------------------------------------------------

TEST(FaultPlan, ParsesTheIssueExample) {
  const auto plan = FaultPlan::parse(
      "bank_fail@3:cycle=1M,link_degrade@(1,2)-(2,2):x4,rrt_flip@core5:cycle=2M");
  ASSERT_EQ(plan.events().size(), 3u);

  const FaultEvent& bank = plan.events()[0];
  EXPECT_EQ(bank.kind, FaultKind::BankFail);
  EXPECT_EQ(bank.unit, 3u);
  EXPECT_EQ(bank.at, 1'000'000u);

  const FaultEvent& link = plan.events()[1];
  EXPECT_EQ(link.kind, FaultKind::LinkDegrade);
  EXPECT_EQ(link.ax, 1u);
  EXPECT_EQ(link.ay, 2u);
  EXPECT_EQ(link.bx, 2u);
  EXPECT_EQ(link.by, 2u);
  EXPECT_EQ(link.factor, 4u);

  const FaultEvent& flip = plan.events()[2];
  EXPECT_EQ(flip.kind, FaultKind::RrtFlip);
  EXPECT_EQ(flip.unit, 5u);
  EXPECT_EQ(flip.at, 2'000'000u);
}

TEST(FaultPlan, CanonicalIsAStableRoundTrip) {
  const std::string messy =
      "  bank_slow@bank2 : x3 : cycle=10k ,dram_stall@mc1:len=5k ";
  const auto plan = FaultPlan::parse(messy);
  const std::string canon = plan.canonical();
  EXPECT_EQ(canon, "bank_slow@2:cycle=10000:x3,dram_stall@1:len=5000");
  // Canonical form re-parses to itself: the fingerprint input is stable no
  // matter how the user spelled the plan.
  EXPECT_EQ(FaultPlan::parse(canon).canonical(), canon);
}

TEST(FaultPlan, ScaledSuffixesAndDefaults) {
  const auto plan = FaultPlan::parse("bank_fail@0,dram_stall@2:cycle=2G:len=1M");
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].at, 0u);  // cycle defaults to 0
  EXPECT_EQ(plan.events()[1].at, 2'000'000'000u);
  EXPECT_EQ(plan.events()[1].length, 1'000'000u);
}

TEST(FaultPlan, EmptySpecIsAnEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ,  ").empty());
  EXPECT_EQ(FaultPlan::parse("").canonical(), "");
}

TEST(FaultPlan, MalformedSpecsThrowWithTheOffendingToken) {
  EXPECT_THROW(FaultPlan::parse("bank_melt@3"), RequireError);
  EXPECT_THROW(FaultPlan::parse("bank_fail"), RequireError);           // no target
  EXPECT_THROW(FaultPlan::parse("bank_fail@x"), RequireError);         // bad index
  EXPECT_THROW(FaultPlan::parse("bank_fail@3:cycle=abc"), RequireError);
  EXPECT_THROW(FaultPlan::parse("bank_fail@3:wat=1"), RequireError);
  EXPECT_THROW(FaultPlan::parse("link_fail@(0,0)-(2,0)"), RequireError);  // not neighbours
  EXPECT_THROW(FaultPlan::parse("link_fail@(0,0)-(1,0"), RequireError);   // unbalanced
  EXPECT_THROW(FaultPlan::parse("dram_stall@0"), RequireError);           // needs len=
  try {
    FaultPlan::parse("bank_fail@3:cycle=1z");
    FAIL() << "expected RequireError";
  } catch (const RequireError& e) {
    EXPECT_NE(std::string(e.what()).find("bank_fail@3:cycle=1z"),
              std::string::npos);
  }
}

// Numbers that overflow their field used to wrap silently (bank 2^32+1
// failed bank 1) or escape as std::out_of_range.
TEST(FaultPlan, RejectsNumbersThatDoNotFit) {
  for (const char* spec : {
           "bank_fail@bank4294967297:cycle=5k",
           "bank_fail@3:cycle=18446744073709551617",
           "link_fail@(4294967296,0)-(4294967297,0)",
           "bank_slow@bank3:cycle=5k:x4294967298",
           "bank_fail@bank99999999999999999999:cycle=5k",
       }) {
    EXPECT_THROW(FaultPlan::parse(spec), RequireError) << spec;
  }
  // The largest values that fit keep their canonical form.
  const std::string max_plan =
      "bank_fail@4294967295:cycle=18446744073709551615,"
      "bank_slow@3:cycle=5000:x4294967295";
  EXPECT_EQ(FaultPlan::parse(max_plan).canonical(), max_plan);
  EXPECT_EQ(FaultPlan::parse("link_fail@(1,0)-(2,0):cycle=2G").canonical(),
            "link_fail@(1,0)-(2,0):cycle=2000000000");
}

// --- HealthState ---------------------------------------------------------

TEST(HealthState, BankFailureShrinksTheHealthySet) {
  HealthState hs(16, 64);
  EXPECT_FALSE(hs.any_fault());
  EXPECT_EQ(hs.num_healthy(), 16u);

  hs.fail_bank(3);
  EXPECT_TRUE(hs.any_bank_failed());
  EXPECT_FALSE(hs.bank_ok(3));
  EXPECT_TRUE(hs.bank_ok(4));
  EXPECT_EQ(hs.num_healthy(), 15u);
  EXPECT_FALSE(hs.healthy_banks().test(3));
  EXPECT_TRUE(hs.failed_banks().test(3));
  EXPECT_EQ(hs.counters.banks_failed, 1u);

  // Idempotent: failing a dead bank again is a no-op.
  hs.fail_bank(3);
  EXPECT_EQ(hs.counters.banks_failed, 1u);
}

TEST(HealthState, RemapNeverReturnsAFailedBank) {
  HealthState hs(16, 64);
  hs.fail_bank(0);
  hs.fail_bank(7);
  hs.fail_bank(15);
  for (Addr a = 0; a < 4096 * 64; a += 64) {
    const BankId b = hs.remap_bank(a);
    EXPECT_TRUE(hs.bank_ok(b)) << "addr " << a << " -> bank " << b;
  }
}

TEST(HealthState, TheLastBankCannotFail) {
  HealthState hs(2, 64);
  hs.fail_bank(0);
  EXPECT_THROW(hs.fail_bank(1), RequireError);
}

TEST(HealthState, LinksAndFactors) {
  HealthState hs(16, 64);
  EXPECT_TRUE(hs.link_ok(5, kLinkEast));
  hs.fail_link(5, kLinkEast);
  EXPECT_FALSE(hs.link_ok(5, kLinkEast));
  EXPECT_TRUE(hs.link_ok(5, kLinkWest));
  EXPECT_TRUE(hs.any_link_failed());

  EXPECT_EQ(hs.bank_factor(2), 1u);
  hs.slow_bank(2, 8);
  EXPECT_EQ(hs.bank_factor(2), 8u);
  EXPECT_TRUE(hs.any_bank_slowed());

  hs.degrade_link(3, kLinkSouth, 4);
  EXPECT_EQ(hs.link_factor(3, kLinkSouth), 4u);
  EXPECT_EQ(hs.counters.links_failed, 1u);
  EXPECT_EQ(hs.counters.links_degraded, 1u);
}

// --- RRT overlap splitting (regression) and degradation hooks ------------

TEST(RrtOverlap, NewRangeIsTrimmedAgainstOlderEntries) {
  tdnuca::Rrt rrt(64, 1);
  const BankMask m0 = BankMask::single(0);
  const BankMask m1 = BankMask::single(1);
  ASSERT_TRUE(rrt.register_range({0x2000, 0x6000}, m0));
  // Overlapping registration: only [0x1000,0x2000) and [0x6000,0x8000)
  // are uncovered; the middle stays with the older entry.
  ASSERT_TRUE(rrt.register_range({0x1000, 0x8000}, m1));
  ASSERT_EQ(rrt.size(), 3u);

  EXPECT_EQ(rrt.lookup(0x3000)->mask, m0);  // older entry keeps the middle
  EXPECT_EQ(rrt.lookup(0x1000)->mask, m1);
  EXPECT_EQ(rrt.lookup(0x1000)->prange, (AddrRange{0x1000, 0x2000}));
  EXPECT_EQ(rrt.lookup(0x7000)->mask, m1);
  EXPECT_EQ(rrt.lookup(0x7000)->prange, (AddrRange{0x6000, 0x8000}));
  EXPECT_EQ(rrt.overlap_trims(), 1u);

  // Entries stay pairwise disjoint.
  const auto& es = rrt.entries();
  for (std::size_t i = 0; i < es.size(); ++i)
    for (std::size_t j = i + 1; j < es.size(); ++j)
      EXPECT_FALSE(es[i].prange.overlaps(es[j].prange)) << i << "," << j;
}

TEST(RrtOverlap, FullyShadowedRangeRegistersNothing) {
  tdnuca::Rrt rrt(64, 1);
  ASSERT_TRUE(rrt.register_range({0x0, 0x10000}, BankMask::single(0)));
  // Shadowed duplicate: no new entry, no overflow, still returns true.
  EXPECT_TRUE(rrt.register_range({0x4000, 0x8000}, BankMask::single(9)));
  EXPECT_EQ(rrt.size(), 1u);
  EXPECT_EQ(rrt.lookup(0x5000)->mask, BankMask::single(0));
  // invalidate_range removes exactly one entry — no shadowed duplicate
  // survives to double-count.
  EXPECT_EQ(rrt.invalidate_range({0x4000, 0x8000}), 1u);
  EXPECT_EQ(rrt.size(), 0u);
}

TEST(RrtOverlap, CapacityOverflowDropsLowestPiecesLast) {
  tdnuca::Rrt rrt(2, 1);
  ASSERT_TRUE(rrt.register_range({0x4000, 0x5000}, BankMask::single(0)));
  // Splits into [0x1000,0x4000) and [0x5000,0x8000); only the first fits.
  EXPECT_FALSE(rrt.register_range({0x1000, 0x8000}, BankMask::single(1)));
  EXPECT_EQ(rrt.size(), 2u);
  EXPECT_TRUE(rrt.lookup(0x2000).has_value());   // low piece inserted
  EXPECT_FALSE(rrt.lookup(0x6000).has_value());  // high piece dropped
  EXPECT_EQ(rrt.overflows(), 1u);
}

TEST(RrtDegradation, HealNarrowsAndErasesEntries) {
  tdnuca::Rrt rrt(64, 1);
  const BankMask cluster = BankMask(0b1111);                 // banks 0-3
  ASSERT_TRUE(rrt.register_range({0x1000, 0x2000}, cluster));
  ASSERT_TRUE(rrt.register_range({0x2000, 0x3000}, BankMask::single(5)));
  ASSERT_TRUE(rrt.register_range({0x3000, 0x4000}, BankMask()));  // bypass

  BankMask healthy = BankMask::first_n(16);
  healthy.clear(5);
  healthy.clear(2);
  const auto res = rrt.heal(healthy);
  EXPECT_EQ(res.narrowed, 1u);  // cluster loses bank 2
  EXPECT_EQ(res.erased, 1u);    // single-bank entry on dead bank 5
  ASSERT_EQ(rrt.size(), 2u);
  EXPECT_EQ(rrt.lookup(0x1000)->mask, BankMask(0b1011));
  EXPECT_FALSE(rrt.lookup(0x2000).has_value());  // falls back to S-NUCA
  EXPECT_TRUE(rrt.lookup(0x3000)->mask.empty()); // bypass entries untouched
}

TEST(RrtDegradation, CorruptAndEvictEntries) {
  tdnuca::Rrt rrt(64, 1);
  ASSERT_TRUE(rrt.register_range({0x1000, 0x2000}, BankMask::single(4)));
  rrt.corrupt_entry(0, BankMask::single(9));
  EXPECT_EQ(rrt.lookup(0x1000)->mask, BankMask::single(9));
  EXPECT_EQ(rrt.evict_entry(0), (AddrRange{0x1000, 0x2000}));
  EXPECT_EQ(rrt.size(), 0u);
  EXPECT_THROW(rrt.corrupt_entry(0, BankMask()), RequireError);
  EXPECT_THROW(rrt.evict_entry(0), RequireError);
}

// --- watchdog ------------------------------------------------------------

namespace {

/// Seed a livelock: a chain of real events that executes merrily without the
/// progress witness ever advancing.
void seed_livelock(sim::EventQueue& eq, int hops, Cycle step) {
  if (hops <= 0) return;
  eq.schedule_in(step, [&eq, hops, step] { seed_livelock(eq, hops - 1, step); });
}

}  // namespace

TEST(Watchdog, FiringProducesADiagnosticInsteadOfAborting) {
  sim::EventQueue eq;
  Watchdog wd(eq, /*budget=*/50);
  wd.set_progress([] { return 0ull; });  // never advances
  wd.add_diagnostic("queue_depth", [&eq] {
    return std::to_string(eq.pending());
  });
  std::string captured;
  wd.on_fire([&captured](const std::string& d) { captured = d; });

  seed_livelock(eq, /*hops=*/100, /*step=*/10);
  wd.arm();
  eq.run();  // does not hang and does not throw: the collector absorbed it

  EXPECT_TRUE(wd.fired());
  EXPECT_NE(captured.find("no forward progress"), std::string::npos);
  EXPECT_NE(captured.find("queue_depth"), std::string::npos);
  EXPECT_NE(captured.find("cycle="), std::string::npos);
}

TEST(Watchdog, DefaultHandlerThrowsWatchdogError) {
  sim::EventQueue eq;
  Watchdog wd(eq, /*budget=*/50);
  wd.set_progress([] { return 0ull; });
  seed_livelock(eq, /*hops=*/100, /*step=*/10);
  wd.arm();
  EXPECT_THROW(eq.run(), WatchdogError);
}

TEST(Watchdog, AdvancingProgressNeverFires) {
  sim::EventQueue eq;
  std::uint64_t work = 0;
  Watchdog wd(eq, /*budget=*/50);
  wd.set_progress([&work] { return work; });
  // Real events that DO advance the witness each step.
  std::function<void(int)> chain = [&](int hops) {
    if (hops <= 0) return;
    eq.schedule_in(10, [&chain, &work, hops] {
      ++work;
      chain(hops - 1);
    });
  };
  chain(100);
  wd.arm();
  eq.run();
  EXPECT_FALSE(wd.fired());
  EXPECT_GT(wd.ticks(), 5u);  // it was watching the whole time
}

TEST(Watchdog, ObserverEventsNeverSatisfyTheProgressCheck) {
  // Observer traffic (epoch samplers, the watchdog itself) is excluded from
  // executed(): a window where ONLY observers ran is idle, not live, so the
  // watchdog must not fire even though the witness is frozen.
  sim::EventQueue eq;
  Watchdog wd(eq, /*budget=*/50);
  wd.set_progress([] { return 0ull; });
  std::string captured;
  wd.on_fire([&captured](const std::string& d) { captured = d; });

  // Dense observer chain across the whole window, interleaving with every
  // watchdog deadline tick.
  std::function<void(int)> observers = [&](int hops) {
    if (hops <= 0) return;
    eq.schedule_observer_in(5, [&observers, hops] { observers(hops - 1); });
  };
  observers(200);
  // One distant real event keeps real_pending() nonzero so the watchdog
  // keeps watching rather than declaring the run drained.
  eq.schedule_at(990, [] {});
  wd.arm();
  eq.run();

  EXPECT_FALSE(wd.fired());
  EXPECT_TRUE(captured.empty());
  EXPECT_GT(wd.ticks(), 10u);  // deadlines interleaved with the observers
}

TEST(Watchdog, ZeroBudgetIsDisabled) {
  sim::EventQueue eq;
  Watchdog wd(eq, /*budget=*/0);
  wd.set_progress([] { return 0ull; });
  seed_livelock(eq, 50, 10);
  wd.arm();
  eq.run();
  EXPECT_FALSE(wd.fired());
  EXPECT_EQ(wd.ticks(), 0u);
}

// --- end-to-end degraded runs --------------------------------------------

namespace {

harness::RunResult run_faulted(const std::string& wl, system::PolicyKind p,
                               const std::string& plan,
                               double scale = 0.1) {
  harness::RunConfig cfg;
  cfg.workload = wl;
  cfg.policy = p;
  cfg.params.scale = scale;
  cfg.sys.fault.plan = plan;
  return harness::run_experiment(cfg, /*use_cache=*/false);
}

}  // namespace

TEST(FaultIntegration, BankFailureDegradesGracefully) {
  for (const auto p : {system::PolicyKind::SNuca, system::PolicyKind::TdNuca}) {
    const auto healthy = run_faulted("kmeans", p, "");
    const auto faulted = run_faulted("kmeans", p, "bank_fail@3:cycle=1k");
    // The run completes (the end-of-run invariant checker passed inside
    // run_experiment) and actually took the degraded path.
    EXPECT_GT(faulted.get("tasks.completed"), 0.0);
    EXPECT_EQ(faulted.get("tasks.completed"), healthy.get("tasks.completed"));
    EXPECT_EQ(faulted.get("fault.banks_failed"), 1.0);
    EXPECT_EQ(faulted.get("fault.healthy_banks"), 15.0);
    // Healthy runs carry no fault.* keys at all, and a failed bank visibly
    // changes the simulation.
    EXPECT_FALSE(healthy.has("fault.banks_failed"));
    EXPECT_NE(faulted.get("sim.cycles"), healthy.get("sim.cycles"));
  }
}

TEST(FaultIntegration, TwoBankFailures) {
  const auto r =
      run_faulted("jacobi", system::PolicyKind::TdNuca,
                  "bank_fail@3:cycle=1k,bank_fail@9:cycle=2k");
  EXPECT_EQ(r.get("fault.banks_failed"), 2.0);
  EXPECT_EQ(r.get("fault.healthy_banks"), 14.0);
  EXPECT_GT(r.get("tasks.completed"), 0.0);
}

TEST(FaultIntegration, LinkFailureReroutesTraffic) {
  const auto r = run_faulted("kmeans", system::PolicyKind::SNuca,
                             "link_fail@(1,1)-(2,1)");
  EXPECT_EQ(r.get("fault.links_failed"), 2.0);  // both directions
  EXPECT_GT(r.get("fault.noc_reroutes"), 0.0);  // Y-X fallback engaged
  EXPECT_GT(r.get("tasks.completed"), 0.0);
}

TEST(FaultIntegration, DramStallDelaysTheRun) {
  const auto healthy = run_faulted("md5", system::PolicyKind::SNuca, "");
  const auto stalled = run_faulted("md5", system::PolicyKind::SNuca,
                                   "dram_stall@0:cycle=1k:len=50k");
  EXPECT_EQ(stalled.get("fault.dram_stalls"), 1.0);
  EXPECT_GT(stalled.get("sim.cycles"), healthy.get("sim.cycles"));
}

TEST(FaultIntegration, RrtCorruptionIsScrubbed) {
  const auto r = run_faulted(
      "kmeans", system::PolicyKind::TdNuca,
      "rrt_flip@core0:cycle=5k,rrt_evict@core1:cycle=5k");
  EXPECT_GT(r.get("tasks.completed"), 0.0);
  // Each injected soft error that landed on a populated table gets scrubbed
  // after the detection delay.
  EXPECT_EQ(r.get("fault.rrt_scrubs"),
            r.get("fault.rrt_corruptions") + r.get("fault.rrt_evictions"));
}

// A plan names only units the machine has: an index past it would otherwise
// hit another unit (bank 17 wrapping onto bank 1 on the 16-bank machine) or
// fail only when its event fires, so the system's construction rejects it.
TEST(FaultIntegration, PlansNameOnlyUnitsTheMachineHas) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  for (const char* plan : {"bank_fail@17:cycle=5k", "rrt_flip@core16",
                           "dram_stall@mc8:len=5k", "link_fail@(4,0)-(5,0)"}) {
    cfg.fault.plan = plan;
    try {
      system::TiledSystem sys(cfg);
      ADD_FAILURE() << plan << " was accepted";
    } catch (const RequireError& e) {
      const std::string event = to_string(FaultPlan::parse(plan).events()[0]);
      EXPECT_NE(std::string(e.what()).find(event), std::string::npos)
          << e.what();
    }
  }
  workloads::WorkloadParams params;
  params.scale = 0.1;
  for (const char* plan :
       {"bank_fail@15:cycle=5k", "dram_stall@mc7:cycle=1k:len=5k"}) {
    cfg.fault.plan = plan;
    system::TiledSystem sys(cfg);
    workloads::make_workload("md5", params)->build(sys);
    sys.run();
    EXPECT_TRUE(sys.completed()) << plan;
  }
}

TEST(FaultIntegration, FaultRunsAreBitIdenticalAcrossJobs) {
  std::vector<harness::RunConfig> cfgs;
  for (const char* wl : {"kmeans", "jacobi"}) {
    for (const auto p : {system::PolicyKind::SNuca, system::PolicyKind::TdNuca}) {
      harness::RunConfig cfg;
      cfg.workload = wl;
      cfg.policy = p;
      cfg.params.scale = 0.1;
      cfg.sys.fault.plan = "bank_fail@3:cycle=1k,link_degrade@(0,1)-(1,1):x4";
      cfgs.push_back(std::move(cfg));
    }
  }
  harness::SweepOptions serial_opts;
  serial_opts.jobs = 1;
  serial_opts.use_cache = false;
  harness::SweepOptions pool_opts;
  pool_opts.jobs = 4;
  pool_opts.use_cache = false;
  const auto serial = harness::SweepRunner(serial_opts).run(cfgs);
  const auto pooled = harness::SweepRunner(pool_opts).run(cfgs);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].metrics, pooled[i].metrics) << "run " << i;
}

// --- fingerprinting ------------------------------------------------------

TEST(FaultFingerprint, PlanSeedAndScrubDelayChangeIt) {
  harness::RunConfig base;
  base.workload = "kmeans";
  base.policy = system::PolicyKind::TdNuca;
  const std::uint64_t fp0 = base.fingerprint();

  harness::RunConfig planned = base;
  planned.sys.fault.plan = "bank_fail@3:cycle=1k";
  EXPECT_NE(planned.fingerprint(), fp0);

  harness::RunConfig seeded = planned;
  seeded.sys.fault.seed ^= 1;
  EXPECT_NE(seeded.fingerprint(), planned.fingerprint());

  harness::RunConfig scrub = planned;
  scrub.sys.fault.rrt_scrub_delay += 1;
  EXPECT_NE(scrub.fingerprint(), planned.fingerprint());

  // Equivalent spellings of the same plan share a fingerprint (canonical
  // form feeds the hash, not the raw string).
  harness::RunConfig spaced = base;
  spaced.sys.fault.plan = " bank_fail@bank3 : cycle=1000 ";
  EXPECT_EQ(spaced.fingerprint(), planned.fingerprint());
}

TEST(FaultFingerprint, ObserverKnobsDoNot) {
  harness::RunConfig base;
  base.workload = "kmeans";
  const std::uint64_t fp0 = base.fingerprint();

  harness::RunConfig wd = base;
  wd.sys.fault.watchdog_budget = 1'000'000;
  EXPECT_EQ(wd.fingerprint(), fp0);

  harness::RunConfig inv = base;
  inv.sys.fault.check_invariants = false;
  EXPECT_EQ(inv.fingerprint(), fp0);
}

// --- sweep error context --------------------------------------------------

TEST(SweepErrorContext, FailureCarriesDescribeAndFingerprint) {
  harness::RunConfig good;
  good.workload = "md5";
  good.params.scale = 0.1;
  harness::RunConfig bad;
  bad.workload = "no_such_workload";
  bad.policy = system::PolicyKind::TdNuca;
  bad.sys.fault.plan = "bank_fail@3:cycle=1k";
  const std::vector<harness::RunConfig> cfgs{good, bad};

  harness::SweepOptions opts;
  opts.jobs = 2;
  opts.use_cache = false;
  try {
    harness::SweepRunner(opts).run(cfgs);
    FAIL() << "expected the sweep to rethrow the bad run's error";
  } catch (const RequireError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sweep run 1 failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("no_such_workload"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fingerprint=0x"), std::string::npos) << msg;
    EXPECT_NE(msg.find("faults=\"bank_fail@3:cycle=1k\""), std::string::npos)
        << msg;
  }
}
