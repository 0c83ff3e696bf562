// tdn::serve — arrival DSL, admission control, QoS accounting and the
// serving determinism contract (docs/serving.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "harness/runner.hpp"
#include "harness/sweep_runner.hpp"
#include "multi/mix.hpp"
#include "obs/recorder.hpp"
#include "serve/arrival.hpp"
#include "serve/options.hpp"
#include "serve/serve_system.hpp"

using namespace tdn;
using namespace tdn::serve;

namespace {

workloads::WorkloadParams small_params() {
  workloads::WorkloadParams p;
  p.scale = 0.1;
  return p;
}

ServeOptions light_load() {
  ServeOptions o;
  o.arrival = "fixed:gap=60k";
  o.horizon = 300'000;
  o.request_scale = 0.05;
  return o;
}

ServeOptions overload() {
  ServeOptions o;
  o.arrival = "fixed:gap=3k";
  o.horizon = 150'000;
  o.max_pending = 2;
  o.request_scale = 0.05;
  return o;
}

}  // namespace

// --- arrival DSL ----------------------------------------------------------

TEST(ServeArrival, ParsesEveryKindWithSuffixes) {
  const ArrivalSpec p = ArrivalSpec::parse("poisson:gap=40k");
  EXPECT_EQ(p.kind, ArrivalKind::Poisson);
  EXPECT_EQ(p.gap, 40'000u);

  const ArrivalSpec m = ArrivalSpec::parse("mmpp:gap=2M,burst=8k,dwell=120k");
  EXPECT_EQ(m.kind, ArrivalKind::Mmpp);
  EXPECT_EQ(m.gap, 2'000'000u);
  EXPECT_EQ(m.burst, 8'000u);
  EXPECT_EQ(m.dwell, 120'000u);

  const ArrivalSpec d = ArrivalSpec::parse("diurnal:gap=40k,amp=0.5,period=300k");
  EXPECT_EQ(d.kind, ArrivalKind::Diurnal);
  EXPECT_DOUBLE_EQ(d.amp, 0.5);
  EXPECT_EQ(d.period, 300'000u);

  // Bare kind uses the documented defaults.
  const ArrivalSpec f = ArrivalSpec::parse("fixed");
  EXPECT_EQ(f.kind, ArrivalKind::Fixed);
  EXPECT_EQ(f.gap, 40'000u);
}

TEST(ServeArrival, RejectsMalformedSpecsLoudly) {
  EXPECT_THROW(ArrivalSpec::parse(""), RequireError);
  EXPECT_THROW(ArrivalSpec::parse("weibull:gap=40k"), RequireError);    // kind
  EXPECT_THROW(ArrivalSpec::parse("poisson:rate=40k"), RequireError);   // key
  EXPECT_THROW(ArrivalSpec::parse("poisson:gap=0"), RequireError);      // zero
  EXPECT_THROW(ArrivalSpec::parse("poisson:gap"), RequireError);        // no =
  EXPECT_THROW(ArrivalSpec::parse("poisson:gap=4x"), RequireError);     // junk
  EXPECT_THROW(ArrivalSpec::parse("diurnal:gap=40k,amp=1.5"), RequireError);
  EXPECT_THROW(ArrivalSpec::parse("mmpp:gap=40k,dwell=0"), RequireError);
}

// Numbers past 64 bits used to wrap silently (gap=2^64+1 parsed as 1).
TEST(ServeArrival, RejectsNumbersThatDoNotFit) {
  EXPECT_THROW(ArrivalSpec::parse("poisson:gap=18446744073709551617"),
               RequireError);
  EXPECT_THROW(ArrivalSpec::parse("poisson:gap=18446744073709552k"),
               RequireError);
  EXPECT_THROW(parse_weights("18446744073709551617", 1), RequireError);
  // The largest values still parse, and G joins the k/M multipliers.
  EXPECT_EQ(ArrivalSpec::parse("poisson:gap=18446744073709551615").gap,
            ~Cycle{0});
  EXPECT_EQ(ArrivalSpec::parse("fixed:gap=18446744073709551k").gap,
            18'446'744'073'709'551'000u);
  EXPECT_EQ(ArrivalSpec::parse("mmpp:gap=2G,burst=8k,dwell=1G").gap,
            2'000'000'000u);
}

// fixed: used to skip the runaway guard every other kind has.
TEST(ServeArrival, FixedArrivalsObeyTheRunawayGuard) {
  const ArrivalSpec spec = ArrivalSpec::parse("fixed:gap=1");
  EXPECT_THROW(spec.generate(600'000, {1}, 7), RequireError);
}

TEST(ServeArrival, TraceIsDeterministicAndSeedSensitive) {
  const ArrivalSpec spec = ArrivalSpec::parse("poisson:gap=10k");
  const std::vector<unsigned> w{1, 1};
  const auto a = spec.generate(400'000, w, 7);
  const auto b = spec.generate(400'000, w, 7);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
  }
  // A different seed (and a different kind at the same mean gap) draw from
  // different streams.
  const auto c = spec.generate(400'000, w, 8);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].cycle != c[i].cycle;
  EXPECT_TRUE(differs);

  // Every arrival is inside the horizon, in non-decreasing order, with a
  // valid tenant.
  Cycle prev = 0;
  for (const Arrival& ar : a) {
    EXPECT_LT(ar.cycle, 400'000u);
    EXPECT_GE(ar.cycle, prev);
    EXPECT_LT(ar.tenant, 2u);
    prev = ar.cycle;
  }
}

TEST(ServeArrival, WeightsSkewTheTenantDraw) {
  const ArrivalSpec spec = ArrivalSpec::parse("poisson:gap=2k");
  const auto trace = spec.generate(800'000, {9, 1}, 7);
  ASSERT_GT(trace.size(), 100u);
  std::size_t t0 = 0;
  for (const Arrival& a : trace) t0 += a.tenant == 0 ? 1 : 0;
  const double share = static_cast<double>(t0) / static_cast<double>(trace.size());
  EXPECT_GT(share, 0.8);
  EXPECT_LT(share, 1.0);
}

TEST(ServeArrival, ParseWeightsValidates) {
  EXPECT_EQ(parse_weights("", 3), (std::vector<unsigned>{1, 1, 1}));
  EXPECT_EQ(parse_weights("3:1", 2), (std::vector<unsigned>{3, 1}));
  EXPECT_THROW(parse_weights("3:1", 3), RequireError);  // count mismatch
  EXPECT_THROW(parse_weights("3:0", 2), RequireError);  // zero weight
  EXPECT_THROW(parse_weights("3:x", 2), RequireError);  // junk
}

// --- admission control / QoS invariants -----------------------------------

TEST(ServeSystemTest, LightLoadCompletesEveryRequest) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  ServeSystem sys(cfg, multi::MixSpec::parse("gauss"), light_load());
  sys.build(small_params());
  const Cycle makespan = sys.run();
  ASSERT_TRUE(sys.completed());
  EXPECT_GT(sys.offered(), 0u);
  EXPECT_EQ(sys.shed(), 0u);
  EXPECT_EQ(sys.requests_completed(), sys.offered());
  EXPECT_GT(makespan, 0u);

  const auto reg = sys.collect_stats();
  EXPECT_EQ(reg.get("serve.offered"),
            reg.get("serve.shed") + reg.get("serve.completed"));
  EXPECT_EQ(reg.get("serve.shed_rate"), 0.0);
  EXPECT_GT(reg.get("serve.sojourn.p99"), 0.0);
  EXPECT_GE(reg.get("serve.sojourn.p999"), reg.get("serve.sojourn.p99"));
  EXPECT_GT(reg.get("serve.goodput"), 0.0);
  EXPECT_GT(reg.get("tasks.completed"), 0.0);
}

TEST(ServeSystemTest, OverloadShedsAndRespectsQueueBound) {
  for (const AdmissionPolicy pol :
       {AdmissionPolicy::Reject, AdmissionPolicy::DropOldest}) {
    system::SystemConfig cfg;
    cfg.policy = system::PolicyKind::SNuca;
    ServeOptions opts = overload();
    opts.admission = pol;
    ServeSystem sys(cfg, multi::MixSpec::parse("gauss"), opts);
    sys.build(small_params());
    sys.run();
    ASSERT_TRUE(sys.completed()) << to_string(pol);
    // Offered load far beyond capacity: admission must shed.
    EXPECT_GT(sys.shed(), 0u) << to_string(pol);
    EXPECT_EQ(sys.offered(), sys.shed() + sys.requests_completed())
        << to_string(pol);
    EXPECT_LE(sys.queue_max_depth(), opts.max_pending) << to_string(pol);
    // Per-tenant counters sum to the totals.
    const auto reg = sys.collect_stats();
    EXPECT_EQ(reg.get("serve.tenant0.offered"), reg.get("serve.offered"));
    EXPECT_EQ(reg.get("serve.tenant0.shed"), reg.get("serve.shed"));
  }
}

TEST(ServeSystemTest, DropOldestBeatsRejectOnTailSojourn) {
  // Under the same overload, shedding the stalest queued request instead of
  // the newcomer serves fresher work: max queue wait cannot be worse.
  auto p99_wait = [](AdmissionPolicy pol) {
    system::SystemConfig cfg;
    cfg.policy = system::PolicyKind::SNuca;
    ServeOptions opts;
    opts.arrival = "fixed:gap=3k";
    opts.horizon = 150'000;
    opts.max_pending = 4;
    opts.admission = pol;
    ServeSystem sys(cfg, multi::MixSpec::parse("gauss"), opts);
    sys.build(small_params());
    sys.run();
    return sys.collect_stats().get("serve.queue_wait.p99");
  };
  EXPECT_LE(p99_wait(AdmissionPolicy::DropOldest),
            p99_wait(AdmissionPolicy::Reject));
}

TEST(ServeSystemTest, TwoTenantsGetSeparateQos) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  ServeOptions opts = light_load();
  opts.arrival = "poisson:gap=25k";
  opts.weights = "3:1";
  ServeSystem sys(cfg, multi::MixSpec::parse("gauss+histo"), opts);
  sys.build(small_params());
  sys.run();
  ASSERT_TRUE(sys.completed());
  const auto reg = sys.collect_stats();
  EXPECT_EQ(reg.get("serve.tenant0.offered") + reg.get("serve.tenant1.offered"),
            reg.get("serve.offered"));
  EXPECT_EQ(reg.get("serve.tenant0.completed") +
                reg.get("serve.tenant1.completed"),
            reg.get("serve.completed"));
  // The 3:1 weighting shows in the offered split.
  EXPECT_GT(reg.get("serve.tenant0.offered"),
            reg.get("serve.tenant1.offered"));
}

// Observation never perturbs: a serving run with every Recorder sink on
// produces metric-for-metric identical stats to a plain run, while the
// serving spans/series/heatmaps actually capture data.
TEST(ServeSystemTest, RecorderObservesWithoutPerturbing) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  const multi::MixSpec mix = multi::MixSpec::parse("gauss+histo");

  ServeSystem plain(cfg, mix, light_load());
  plain.build(small_params());
  plain.run();
  const auto base = plain.collect_stats().all();

  obs::RecorderConfig rc;
  rc.trace = rc.epochs = rc.heatmaps = true;
  rc.epoch_cycles = 20'000;
  obs::Recorder rec(rc);
  ServeSystem observed(cfg, mix, light_load(), &rec);
  observed.build(small_params());
  observed.run();

  EXPECT_EQ(base, observed.collect_stats().all());
  EXPECT_GT(rec.trace_events(), 0u);
  EXPECT_GT(rec.epoch_series(), 0u);
  EXPECT_GT(rec.heatmap_count(), 0u);

  // With vm on, latency attribution also sees every translation, and still
  // perturbs nothing.
  system::SystemConfig vm_cfg = cfg;
  vm_cfg.vm.enabled = true;
  vm_cfg.vm.thp = vm::ThpPolicy::Never;
  ServeSystem vm_plain(vm_cfg, mix, light_load());
  vm_plain.build(small_params());
  vm_plain.run();
  obs::RecorderConfig arc;
  arc.attribution = true;
  obs::Recorder attributed(arc);
  ServeSystem vm_observed(vm_cfg, mix, light_load(), &attributed);
  vm_observed.build(small_params());
  vm_observed.run();
  EXPECT_EQ(vm_plain.collect_stats().all(), vm_observed.collect_stats().all());
  ASSERT_NE(attributed.attribution(), nullptr);
  EXPECT_GT(attributed.attribution()->translation().count(), 0u);
  EXPECT_GT(vm_observed.collect_stats().get("vm.walks"), 0.0);
}

TEST(ServeSystemTest, RejectsBadShapes) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  const multi::MixSpec gauss = multi::MixSpec::parse("gauss");

  ServeOptions no_arrival;
  EXPECT_THROW({ ServeSystem bad(cfg, gauss, no_arrival); }, RequireError);

  ServeOptions odd_slots = light_load();
  odd_slots.slots = 3;  // 4-row mesh cannot split into 3 row partitions
  EXPECT_THROW({ ServeSystem bad(cfg, gauss, odd_slots); }, RequireError);

  system::SystemConfig dry = cfg;
  dry.policy = system::PolicyKind::TdNucaDryRun;
  EXPECT_THROW({ ServeSystem bad(dry, gauss, light_load()); }, RequireError);

  system::SystemConfig rnuca = cfg;
  rnuca.policy = system::PolicyKind::RNuca;
  ServeOptions adaptive = light_load();
  adaptive.adaptive = true;
  EXPECT_THROW({ ServeSystem bad(rnuca, gauss, adaptive); }, RequireError);

  // Per-slot RRTs are out of the injector's reach: an RRT soft error would
  // hit nothing.
  system::SystemConfig rrt_fault = cfg;
  rrt_fault.fault.plan = "rrt_evict@core1:cycle=5k";
  EXPECT_THROW({ ServeSystem bad(rrt_fault, gauss, light_load()); },
               RequireError);
}

TEST(ServeSystemTest, AdaptiveSwitchingRunsAndCounts) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  ServeOptions opts;
  // Tenant 1 dominates arrivals, so tenant 0's epoch share sits below the
  // threshold and the very first sampled epoch switches to R-NUCA.
  opts.arrival = "poisson:gap=8k";
  opts.horizon = 200'000;
  opts.weights = "1:9";
  opts.adaptive = true;
  opts.epoch = 20'000;
  opts.switch_threshold = 0.5;
  ServeSystem sys(cfg, multi::MixSpec::parse("gauss+histo"), opts);
  sys.build(small_params());
  sys.run();
  ASSERT_TRUE(sys.completed());
  EXPECT_GE(sys.policy_switches(), 1u);
  const auto reg = sys.collect_stats();
  EXPECT_EQ(reg.get("serve.policy_switches"),
            static_cast<double>(sys.policy_switches()));
}

// Serving exports the machine's one key set, the closed runs' per-bank,
// per-core, flush, RRT, hook and fault keys included, and its per-slot LLC
// view is the app view's appK.llc.*.
TEST(ServeSystemTest, ExportsTheMachineKeySet) {
  for (const std::string plan : {"", "bank_fail@3:cycle=40k"}) {
    system::SystemConfig cfg;
    cfg.policy = system::PolicyKind::TdNuca;
    cfg.fault.plan = plan;
    const ServeOptions opts = light_load();
    ServeSystem sys(cfg, multi::MixSpec::parse("gauss+histo"), opts);
    sys.build(small_params());
    sys.run();
    ASSERT_TRUE(sys.completed());
    const auto reg = sys.collect_stats();
    const unsigned n = cfg.num_cores();
    double bank_requests = 0.0;
    for (unsigned b = 0; b < n; ++b) {
      const std::string p = "llc.bank" + std::to_string(b);
      for (const char* k : {".requests", ".hits", ".misses", ".writebacks"})
        EXPECT_TRUE(reg.has(p + k)) << p + k;
      bank_requests += reg.get(p + ".requests");
    }
    for (unsigned c = 0; c < n; ++c) {
      const std::string p = "mem.core" + std::to_string(c);
      for (const char* k : {".tlb_hits", ".tlb_misses", ".tlb_shootdowns"})
        EXPECT_TRUE(reg.has(p + k)) << p + k;
    }
    for (const char* k :
         {"flush.busy_cycles", "rrt.lookups", "rrt.max_occupancy",
          "rrt.mean_occupancy", "tdnuca.bypass_placements",
          "tdnuca.local_placements", "tdnuca.replicated_placements",
          "tdnuca.runtime_overhead_cycles", "tdnuca.translate_pages",
          "tdnuca.translate_cycles"})
      EXPECT_TRUE(reg.has(k)) << k;
    EXPECT_GT(reg.get("rrt.lookups"), 0.0);
    EXPECT_GT(reg.get("tdnuca.runtime_overhead_cycles"), 0.0);
    double app_requests = 0.0;
    for (unsigned s = 0; s < opts.slots; ++s) {
      const std::string p = "app" + std::to_string(s) + ".llc";
      for (const char* k : {".requests", ".hits", ".misses", ".writebacks",
                            ".bypass_reads", ".hit_ratio"})
        EXPECT_TRUE(reg.has(p + k)) << p + k;
      app_requests += reg.get(p + ".requests");
    }
    EXPECT_GT(reg.get("llc.requests"), 0.0);
    EXPECT_EQ(app_requests, reg.get("llc.requests"));
    EXPECT_EQ(bank_requests, reg.get("llc.requests"));
    EXPECT_EQ(reg.has("fault.banks_failed"), !plan.empty()) << plan;
    if (!plan.empty()) {
      EXPECT_EQ(reg.get("fault.banks_failed"), 1.0);
      EXPECT_EQ(reg.get("fault.healthy_banks"), n - 1.0);
      EXPECT_TRUE(reg.has("fault.bounced_requests"));
    }
  }
}

// --- harness integration: fingerprints, cache keys, sweeps ----------------

TEST(ServeHarness, FingerprintSeparatesServingOptions) {
  harness::RunConfig base;
  base.workload = "gauss";
  base.policy = system::PolicyKind::TdNuca;
  base.serve.arrival = "poisson:gap=40k";

  harness::RunConfig closed = base;
  closed.serve.arrival.clear();  // ordinary closed run
  harness::RunConfig other_arrival = base;
  other_arrival.serve.arrival = "mmpp:gap=40k";
  harness::RunConfig other_admission = base;
  other_admission.serve.admission = AdmissionPolicy::DropOldest;
  harness::RunConfig other_slots = base;
  other_slots.serve.slots = 4;
  harness::RunConfig adaptive = base;
  adaptive.serve.adaptive = true;

  EXPECT_NE(base.fingerprint(), closed.fingerprint());
  EXPECT_NE(base.fingerprint(), other_arrival.fingerprint());
  EXPECT_NE(base.fingerprint(), other_admission.fingerprint());
  EXPECT_NE(base.fingerprint(), other_slots.fingerprint());
  EXPECT_NE(base.fingerprint(), adaptive.fingerprint());
}

TEST(ServeHarness, FingerprintGoldenV9) {
  // Golden hash of the default serving config under schema v9 — the serving
  // twin of MultiProgram.FingerprintGoldenV9. Regenerate by printing
  // cfg.fingerprint() for this exact config.
  harness::RunConfig cfg;
  cfg.workload = "gauss+histo";
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.serve.arrival = "poisson:gap=40k";
  EXPECT_EQ(cfg.fingerprint(), 0x23eca7a4c3ed9703ull)
      << std::hex << cfg.fingerprint();
}

TEST(ServeHarness, RunExperimentRoutesToServeSystem) {
  harness::RunConfig cfg;
  cfg.workload = "gauss";
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.params = small_params();
  cfg.serve = light_load();
  const auto res = harness::run_experiment(cfg, /*use_cache=*/false);
  EXPECT_GT(res.get("serve.offered"), 0.0);
  EXPECT_GT(res.get("serve.goodput"), 0.0);
  EXPECT_GT(res.get("sim.cycles"), 0.0);
}

TEST(ServeHarness, SerialAndParallelServeSweepsBitIdentical) {
  // The acceptance sweep: >= 2 arrival processes x >= 2 policies through
  // SweepRunner, serial vs --jobs 4 bit-identical including the tails.
  std::vector<harness::RunConfig> cfgs;
  for (const char* arrival : {"poisson:gap=30k", "mmpp:gap=60k,burst=6k,dwell=50k"}) {
    for (const auto pol :
         {system::PolicyKind::SNuca, system::PolicyKind::TdNuca}) {
      harness::RunConfig cfg;
      cfg.workload = "gauss+histo";
      cfg.policy = pol;
      cfg.params = small_params();
      cfg.serve.arrival = arrival;
      cfg.serve.horizon = 150'000;
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
    // std::map equality compares every key and every double bit-exactly —
    // including serve.sojourn.p99/p999 and the per-tenant tails.
    EXPECT_EQ(serial[i].metrics, parallel[i].metrics) << "run " << i;
    EXPECT_GT(serial[i].get("serve.sojourn.p99"), 0.0) << "run " << i;
    ASSERT_TRUE(serial[i].has("serve.sojourn.p999")) << "run " << i;
    ASSERT_TRUE(serial[i].has("serve.tenant1.sojourn.p99")) << "run " << i;
  }
}

TEST(ServeHarness, RepeatedRunsAreBitIdentical) {
  harness::RunConfig cfg;
  cfg.workload = "gauss";
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.params = small_params();
  cfg.serve = light_load();
  cfg.serve.arrival = "diurnal:gap=30k,amp=0.8,period=100k";
  const auto a = harness::run_experiment(cfg, /*use_cache=*/false);
  const auto b = harness::run_experiment(cfg, /*use_cache=*/false);
  EXPECT_EQ(a.metrics, b.metrics);
}
