// Tests of tdn::multi — mix parsing, per-app address-space disjointness,
// per-app stats namespacing, colocation fingerprinting, serial/parallel
// sweep bit-identity for mixes, and fault isolation between partitions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/require.hpp"
#include "harness/runner.hpp"
#include "obs/recorder.hpp"
#include "harness/sweep_runner.hpp"
#include "multi/mix.hpp"
#include "multi/multi_system.hpp"
#include "system/tiled_system.hpp"
#include "workloads/workload.hpp"

using namespace tdn;
using namespace tdn::multi;

namespace {

workloads::WorkloadParams small_params() {
  workloads::WorkloadParams p;
  p.scale = 0.1;
  return p;
}

}  // namespace

TEST(MixSpec, ParsesMixesAndSingles) {
  const MixSpec two = MixSpec::parse("gauss+histo");
  ASSERT_EQ(two.apps.size(), 2u);
  EXPECT_EQ(two.apps[0], "gauss");
  EXPECT_EQ(two.apps[1], "histo");
  EXPECT_TRUE(two.is_multi());
  EXPECT_EQ(two.joined(), "gauss+histo");

  const MixSpec one = MixSpec::parse("jacobi");
  EXPECT_FALSE(one.is_multi());
  ASSERT_EQ(one.apps.size(), 1u);
}

TEST(MixSpec, RejectsUnknownNamesListingValidOnes) {
  try {
    MixSpec::parse("gauss+nosuchworkload");
    FAIL() << "expected RequireError";
  } catch (const RequireError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nosuchworkload"), std::string::npos) << msg;
    // The menu of valid names must be in the message.
    EXPECT_NE(msg.find("gauss"), std::string::npos) << msg;
  }
  EXPECT_THROW(MixSpec::parse(""), RequireError);
  EXPECT_THROW(MixSpec::parse("gauss++histo"), RequireError);
}

TEST(MultiProgram, AddressSpacesAreDisjoint) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  MultiProgramSystem sys(cfg, MixSpec::parse("gauss+histo+jacobi+kmeans"));
  sys.build(small_params());
  ASSERT_EQ(sys.num_apps(), 4u);
  for (unsigned a = 0; a < 4; ++a) {
    const Addr base = a * kAppStride + mem::kHeapBase;
    const Addr footprint = sys.app_vspace(a).footprint();
    EXPECT_GT(footprint, 0u) << "app " << a;
    EXPECT_LT(footprint, kAppStride) << "app " << a;
    // Every allocated region lies inside the app's 1 TiB slot, so regions
    // of different apps can never alias.
    for (const auto& r : sys.app_vspace(a).regions()) {
      EXPECT_GE(r.range.begin, base) << "app " << a << " " << r.name;
      EXPECT_LT(r.range.end, base + kAppStride) << "app " << a << " " << r.name;
    }
  }
}

TEST(MultiProgram, PartitionsAreDisjointAndCoverDistinctRows) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::SNuca;
  MultiProgramSystem sys(cfg, MixSpec::parse("lu+md5"));
  const CoreMask c0 = sys.app_cores(0);
  const CoreMask c1 = sys.app_cores(1);
  EXPECT_EQ(c0.count(), 8);
  EXPECT_EQ(c1.count(), 8);
  EXPECT_TRUE((c0 & c1).empty());
  EXPECT_TRUE((sys.app_banks(0) & sys.app_banks(1)).empty());
  EXPECT_EQ(sys.app_banks(0).count() + sys.app_banks(1).count(), 16);
}

TEST(MultiProgram, PerAppCountersSumToMachineTotals) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  MultiProgramSystem sys(cfg, MixSpec::parse("gauss+histo"));
  sys.build(small_params());
  sys.run();
  ASSERT_TRUE(sys.completed());

  const auto reg = sys.collect_stats();
  EXPECT_EQ(reg.get("multi.num_apps"), 2.0);
  for (const char* key : {"llc.requests", "llc.hits", "llc.misses",
                          "llc.writebacks", "tasks.completed"}) {
    const std::string k = key;
    EXPECT_EQ(reg.get("app0." + k) + reg.get("app1." + k), reg.get(k)) << k;
  }
  EXPECT_EQ(reg.get("sim.cycles"),
            std::max(reg.get("app0.sim.cycles"), reg.get("app1.sim.cycles")));
  EXPECT_GT(reg.get("app0.sim.cycles"), 0.0);
  EXPECT_GT(reg.get("app1.sim.cycles"), 0.0);

  // Partitioned mode: every app's resident lines stay inside its own banks.
  for (unsigned a = 0; a < 2; ++a) {
    const BankMask own = sys.app_banks(a);
    std::uint64_t outside = 0;
    for (BankId b = 0; b < 16; ++b)
      if (!own.test(b)) outside += sys.caches().app_resident_lines(a, b);
    EXPECT_EQ(outside, 0u) << "app " << a << " leaked lines outside partition";
  }
}

TEST(MultiProgram, SharedModeSpansTheWholeLlc) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::SNuca;
  MultiOptions opts;
  opts.mode = PartitionMode::Shared;
  MultiProgramSystem sys(cfg, MixSpec::parse("gauss+histo"), opts);
  sys.build(small_params());
  sys.run();
  ASSERT_TRUE(sys.completed());
  // In Shared mode every app's policy maps over the whole LLC, and the
  // stats report all 16 banks per app.
  EXPECT_EQ(sys.app_banks(0), BankMask::first_n(16));
  const auto reg = sys.collect_stats();
  EXPECT_EQ(reg.get("app0.banks"), 16.0);
  EXPECT_EQ(reg.get("multi.partitioned"), 0.0);
}

// A one-app mix simulates the very machine the one-program constructor
// builds: both take the one-program path, so they export the same keys, and
// every value matches bit for bit.
TEST(MultiProgram, OneAppMixSimulatesTheTiledMachine) {
  workloads::WorkloadParams params;
  params.scale = 0.125;
  for (const auto pol : {system::PolicyKind::SNuca, system::PolicyKind::RNuca,
                         system::PolicyKind::TdNuca}) {
    for (const bool vm : {false, true}) {
      for (const auto mode :
           {PartitionMode::Shared, PartitionMode::Partitioned}) {
        const std::string label = std::string(system::to_string(pol)) +
                                  (vm ? " vm" : "") + " " +
                                  (mode == PartitionMode::Shared ? "shared"
                                                                 : "part");
        system::SystemConfig cfg;
        cfg.policy = pol;
        cfg.vm.enabled = vm;
        cfg.vm.thp = vm::ThpPolicy::Never;

        system::TiledSystem tiled(cfg);
        const auto wl = workloads::make_workload("gauss", params);
        wl->build(tiled);
        tiled.run();
        MultiOptions opts;
        opts.mode = mode;
        MultiProgramSystem mix(cfg, MixSpec::parse("gauss"), opts);
        mix.build(params);
        mix.run();
        ASSERT_TRUE(tiled.completed() && mix.completed()) << label;

        const auto a = tiled.collect_stats().all();
        const auto b = mix.collect_stats().all();
        EXPECT_EQ(a.size(), b.size()) << label;
        for (const auto& [key, value] : a) {
          const auto it = b.find(key);
          if (it == b.end()) {
            ADD_FAILURE() << label << ": the mix lacks " << key;
            continue;
          }
          EXPECT_EQ(value, it->second) << label << ": " << key;
        }
        EXPECT_GT(a.at("sim.cycles"), 0.0) << label;
      }
    }
  }
}

// A mix exports every key a one-program run does: the machine's totals,
// per-core and fault keys, and the programs' rrt.*, tdnuca.* and rnuca.*
// keys combined over the apps. Its multi.* and appK.* keys follow.
TEST(MultiProgram, MixExportsTheClosedRunKeySet) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.fault.plan = "bank_fail@3:cycle=5k";
  MultiProgramSystem td(cfg, MixSpec::parse("gauss+histo"));
  td.build(small_params());
  td.run();
  const auto reg = td.collect_stats();
  EXPECT_GT(reg.get("rrt.lookups"), 0.0);
  EXPECT_EQ(reg.get("rrt.lookups"),
            reg.get("app0.rrt.lookups") + reg.get("app1.rrt.lookups"));
  for (const char* key :
       {"rrt.max_occupancy", "rrt.mean_occupancy", "tdnuca.bypass_placements",
        "tdnuca.local_placements", "tdnuca.replicated_placements",
        "tdnuca.runtime_overhead_cycles", "tdnuca.translate_pages",
        "tdnuca.translate_cycles", "flush.busy_cycles", "multi.num_apps"})
    EXPECT_TRUE(reg.has(key)) << key;
  for (unsigned c = 0; c < 16; ++c) {
    for (const char* k : {".tlb_hits", ".tlb_misses", ".tlb_shootdowns"}) {
      const std::string key = "mem.core" + std::to_string(c) + k;
      EXPECT_TRUE(reg.has(key)) << key;
    }
  }
  EXPECT_EQ(reg.get("fault.banks_failed"), 1.0);
  EXPECT_EQ(reg.get("fault.healthy_banks"), 15.0);

  cfg.policy = system::PolicyKind::RNuca;
  cfg.fault.plan.clear();
  MultiProgramSystem rn(cfg, MixSpec::parse("gauss+histo"));
  rn.build(small_params());
  rn.run();
  const auto rreg = rn.collect_stats();
  for (const char* key :
       {"rnuca.private_pages", "rnuca.shared_ro_pages", "rnuca.shared_pages"})
    EXPECT_TRUE(rreg.has(key)) << key;
  EXPECT_GT(rreg.get("rnuca.private_pages") + rreg.get("rnuca.shared_pages"),
            0.0);
  EXPECT_FALSE(rreg.has("rrt.lookups"));
  EXPECT_FALSE(rreg.has("fault.banks_failed"));
}

TEST(MultiProgram, FingerprintSeparatesColocationOptions) {
  harness::RunConfig base;
  base.workload = "gauss+histo";
  base.policy = system::PolicyKind::TdNuca;

  harness::RunConfig shared = base;
  shared.multi.mode = PartitionMode::Shared;
  EXPECT_NE(base.fingerprint(), shared.fingerprint());

  // Different mixes and the single-app spelling all hash apart.
  harness::RunConfig single = base;
  single.workload = "gauss";
  harness::RunConfig other = base;
  other.workload = "histo+gauss";
  EXPECT_NE(base.fingerprint(), single.fingerprint());
  EXPECT_NE(base.fingerprint(), other.fingerprint());

  // Only a closed mix keys the options: a single app and a serving run over
  // a '+'-joined tenant list ignore them and fingerprint the same either way.
  harness::RunConfig single_shared = single;
  single_shared.multi.mode = PartitionMode::Shared;
  EXPECT_EQ(single.fingerprint(), single_shared.fingerprint());
  harness::RunConfig served = base;
  served.serve.arrival = "poisson:gap=40k";
  harness::RunConfig served_shared = served;
  served_shared.multi.mode = PartitionMode::Shared;
  EXPECT_EQ(served.fingerprint(), served_shared.fingerprint());
}

TEST(MultiProgram, FingerprintGoldenV9) {
  // Golden hash of the default 2-app config under schema v9 (v9 dropped the
  // slots of deleted fields, so the colocation segment is "part"). A change
  // here means cached results are (correctly) invalidated — if that was not
  // the intent, the fingerprint composition regressed. Regenerate by
  // printing cfg.fingerprint() for this config.
  harness::RunConfig cfg;
  cfg.workload = "gauss+histo";
  cfg.policy = system::PolicyKind::TdNuca;
  EXPECT_EQ(cfg.fingerprint(), 0xaddc442ea82d1eb7ull)
      << std::hex << cfg.fingerprint();
}

TEST(MultiProgram, SerialAndParallelMixSweepsBitIdentical) {
  std::vector<harness::RunConfig> cfgs;
  for (const auto mode : {PartitionMode::Partitioned, PartitionMode::Shared}) {
    for (const auto pol :
         {system::PolicyKind::SNuca, system::PolicyKind::TdNuca}) {
      harness::RunConfig cfg;
      cfg.workload = "gauss+histo";
      cfg.policy = pol;
      cfg.multi.mode = mode;
      cfg.params = small_params();
      cfgs.push_back(std::move(cfg));
    }
  }
  harness::SweepOptions serial_opts, par_opts;
  serial_opts.jobs = 1;
  serial_opts.use_cache = false;
  par_opts.jobs = 4;
  par_opts.use_cache = false;
  const auto serial = harness::SweepRunner(serial_opts).run(cfgs);
  const auto parallel = harness::SweepRunner(par_opts).run(cfgs);
  ASSERT_EQ(serial.size(), cfgs.size());
  ASSERT_EQ(parallel.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    // std::map equality compares every key and every double bit-exactly.
    EXPECT_EQ(serial[i].metrics, parallel[i].metrics) << "run " << i;
  }
}

TEST(MultiProgramFault, DeadBankInOnePartitionDegradesOnlyThatApp) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  // Bank 3 is in app0's row partition (rows 0-1 on the 4x4 mesh); it dies
  // early enough that both apps are still running.
  cfg.fault.plan = "bank_fail@3:cycle=5k";
  MultiProgramSystem sys(cfg, MixSpec::parse("gauss+histo"));
  sys.build(small_params());
  sys.run();
  ASSERT_TRUE(sys.completed());

  ASSERT_NE(sys.fault_injector(), nullptr);
  EXPECT_EQ(sys.fault_injector()->health().counters.banks_failed, 1u);
  EXPECT_FALSE(sys.fault_injector()->health().bank_ok(3));
  EXPECT_TRUE(sys.app_banks(0).test(3));

  // Isolation: even while app0 degrades around its dead bank, neither app's
  // lines ever land in the other's partition (NoC/DRAM sharing may still
  // perturb timing, but capacity stays partitioned).
  EXPECT_EQ(sys.caches().app_resident_lines(0, 3), 0u);  // dead bank drained
  for (unsigned a = 0; a < 2; ++a) {
    const BankMask own = sys.app_banks(a);
    for (BankId b = 0; b < 16; ++b) {
      if (!own.test(b)) {
        EXPECT_EQ(sys.caches().app_resident_lines(a, b), 0u)
            << "app " << a << " bank " << b;
      }
    }
  }
  // Both apps finish all their tasks despite the failure.
  const auto reg = sys.collect_stats();
  EXPECT_EQ(reg.get("app0.tasks.completed"),
            reg.get("app0.workload.num_tasks"));
  EXPECT_EQ(reg.get("app1.tasks.completed"),
            reg.get("app1.workload.num_tasks"));
}

// With vm on, a mix's page walks reach the latency-attribution sinks as a
// tiled run's do, and attribution perturbs no metric.
TEST(MultiProgram, AttributionSeesTranslationWithoutPerturbing) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.vm.enabled = true;
  cfg.vm.thp = vm::ThpPolicy::Never;
  const MixSpec mix = MixSpec::parse("randtouch+kmeans");
  MultiProgramSystem plain(cfg, mix);
  plain.build(small_params());
  plain.run();

  obs::RecorderConfig rc;
  rc.attribution = true;
  obs::Recorder rec(rc);
  MultiProgramSystem observed(cfg, mix, {}, &rec);
  observed.build(small_params());
  observed.run();

  EXPECT_EQ(plain.collect_stats().all(), observed.collect_stats().all());
  ASSERT_NE(rec.attribution(), nullptr);
  EXPECT_GT(rec.attribution()->translation().count(), 0u);
  EXPECT_GT(observed.collect_stats().get("vm.walks"), 0.0);
}

// Mirrors CkptServe.WatchdogIsArmedAndQuietInServingRuns: a mix honors
// fault.watchdog_budget, and a healthy mix never trips it.
TEST(MultiProgram, WatchdogIsArmedAndQuietInMixes) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.fault.watchdog_budget = 50'000;
  MultiProgramSystem sys(cfg, MixSpec::parse("gauss+histo"));
  sys.build(small_params());
  EXPECT_EQ(sys.watchdog(), nullptr);  // built lazily by run()
  sys.run();
  ASSERT_NE(sys.watchdog(), nullptr);
  EXPECT_FALSE(sys.watchdog()->fired());
  EXPECT_GT(sys.watchdog()->ticks(), 0u);
}

TEST(MultiProgram, RejectsUnsupportedShapes) {
  system::SystemConfig cfg;
  // 3 apps cannot row-partition a 4-row mesh.
  EXPECT_THROW(
      { MultiProgramSystem bad(cfg, MixSpec::parse("gauss+histo+jacobi")); },
      RequireError);
  cfg.policy = system::PolicyKind::TdNucaDryRun;
  EXPECT_THROW(
      { MultiProgramSystem bad(cfg, MixSpec::parse("gauss+histo")); },
      RequireError);
  // Each app owns its RRT set; the injector targets none of them, so an RRT
  // soft error would hit nothing.
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.fault.plan = "rrt_flip@core0:cycle=5k";
  EXPECT_THROW(
      { MultiProgramSystem bad(cfg, MixSpec::parse("gauss+histo")); },
      RequireError);
}
