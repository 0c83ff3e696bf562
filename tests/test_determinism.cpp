// Determinism lock-in: end-to-end golden fingerprints and metric hashes.
//
// The simulation substrate (event queue, coherence, NoC) is allowed to be
// rewritten for speed, but never to change a single simulated cycle. These
// goldens pin one workload per NUCA policy: if any of them moves, either
// the metric schema changed on purpose (bump the fingerprint version in
// RunConfig::fingerprint and regenerate below) or determinism regressed.
//
// Regenerate by printing cfg.fingerprint() and the fnv1a64 of the
// precision-17 "key,value\n" serialization of RunResult::metrics for each
// case (golden_config below, defaults otherwise, cache disabled).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "common/prng.hpp"
#include "harness/runner.hpp"

namespace tdn {
namespace {

std::uint64_t metrics_hash(const std::map<std::string, double>& m) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [k, v] : m) os << k << ',' << v << '\n';
  const std::string s = os.str();
  return fnv1a64(s.data(), s.size());
}

struct GoldenCase {
  const char* workload;
  system::PolicyKind policy;
  std::uint64_t fingerprint;
  std::uint64_t metrics;
  /// params.scale, or serve.request_scale for a serving row.
  double scale = 0.25;
  const char* arrival = "";  ///< non-empty: an open-arrival serving run
  bool adaptive = false;
  bool vm = false;          ///< tdn::vm on, 4K pages only (THP never)
  const char* faults = "";  ///< fault plan (docs/faults.md DSL)
  Cycle ckpt_every = 0;     ///< serving checkpoint cadence; no directory
};

// Schema v8 goldens (v8 added the tdn::vm options segment — disabled runs
// carry the "off" sentinel — and the always-present mem.* per-core TLB /
// allocator keys plus tdnuca.translate_*, so both the fingerprints and the
// metric hashes moved; every v7 metric key kept its exact value, verified
// key-by-key against the seed build). The two mix rows' hashes moved once
// more, with no bump, when mixes gained the closed-run keys one-program runs
// export (flush.busy_cycles, mem.coreN.tlb_*, rrt.* and tdnuca.*): 58 keys
// added to each, no key removed, no value changed.
const GoldenCase kGoldens[] = {
    {"gauss", system::PolicyKind::SNuca, 0x917e4b660d1975ddull,
     0xb4d29d2e391d7bf8ull},
    {"histo", system::PolicyKind::RNuca, 0xdf544619f4ad4980ull,
     0xa32be5730695fe6full},
    {"jacobi", system::PolicyKind::TdNuca, 0x511cb6ff7d847ddeull,
     0xf2def87b56b8b1b1ull},
    // The configs MultiProgram.FingerprintGoldenV8 and
    // ServeHarness.FingerprintGoldenV8 pin, scaled down to keep each run
    // under a second: the colocated and serving front-ends get the same
    // metrics oracle as the tiled one.
    {"gauss+histo", system::PolicyKind::TdNuca, 0x28405c3a02472d68ull,
     0xd887461815ac028cull, 0.125},
    {"gauss+histo", system::PolicyKind::TdNuca, 0x9c738193740e53a2ull,
     0xae1e0c5794264718ull, 0.02, "poisson:gap=40k"},
    {"gauss+histo", system::PolicyKind::TdNuca, 0xe52cdb61959e984bull,
     0x5bc672a6b2662334ull, 0.02, "poisson:gap=40k", /*adaptive=*/true},
    // One row per machine feature the rows above leave off: page walks
    // through the hierarchy in a tiled run and in a mix, a bank failure plus
    // an RRT soft error, and serving with checkpoint folds (the cadence runs
    // the fold and cold reset; with no directory no snapshot is written).
    {"randtouch", system::PolicyKind::TdNuca, 0x3793f6fdbd564590ull,
     0xafb28c4f517c07c2ull, 0.25, "", false, /*vm=*/true},
    {"kmeans", system::PolicyKind::TdNuca, 0x8263cf2758de963eull,
     0x559fbbbd7cabbc6bull, 0.25, "", false, false,
     "bank_fail@3:cycle=5k,rrt_flip@core0:cycle=20k"},
    {"randtouch+kmeans", system::PolicyKind::TdNuca, 0x0073f74aaa55334full,
     0x6f380ec6716e697aull, 0.125, "", false, /*vm=*/true},
    {"gauss+histo", system::PolicyKind::TdNuca, 0xcb0111bf99949892ull,
     0x6c8bebd45c875451ull, 0.02, "poisson:gap=40k", false, false, "",
     /*ckpt_every=*/200'000},
    // The two TD-NUCA study variants: the dry run (Sec. V-E: bookkeeping
    // only, the hierarchy places as S-NUCA) and bypass-only (Fig. 15).
    {"gauss", system::PolicyKind::TdNucaDryRun, 0x755de77a12fce369ull,
     0xe693f2085a1a58bbull},
    {"gauss", system::PolicyKind::TdNucaBypassOnly, 0xc78aa31e2790570aull,
     0xd26ee8c53e44ca75ull},
};

harness::RunConfig golden_config(const GoldenCase& c) {
  harness::RunConfig cfg;
  cfg.workload = c.workload;
  cfg.policy = c.policy;
  cfg.serve.arrival = c.arrival;
  cfg.serve.adaptive = c.adaptive;
  if (c.vm) {
    cfg.sys.vm.enabled = true;
    cfg.sys.vm.thp = vm::ThpPolicy::Never;
  }
  cfg.sys.fault.plan = c.faults;
  cfg.ckpt.every = c.ckpt_every;
  // A serving run sizes each request by request_scale, never params.scale.
  if (cfg.serve.enabled())
    cfg.serve.request_scale = c.scale;
  else
    cfg.params.scale = c.scale;
  return cfg;
}

TEST(Determinism, FingerprintGoldensV8) {
  for (const GoldenCase& c : kGoldens) {
    const harness::RunConfig cfg = golden_config(c);
    EXPECT_EQ(cfg.fingerprint(), c.fingerprint)
        << cfg.describe() << " fingerprint 0x" << std::hex
        << cfg.fingerprint();
  }
}

TEST(Determinism, MetricsGoldensV8) {
  for (const GoldenCase& c : kGoldens) {
    const harness::RunConfig cfg = golden_config(c);
    const harness::RunResult r =
        harness::run_experiment(cfg, /*use_cache=*/false);
    EXPECT_EQ(metrics_hash(r.metrics), c.metrics)
        << cfg.describe() << " metrics hash 0x" << std::hex
        << metrics_hash(r.metrics)
        << " over " << std::dec << r.metrics.size() << " keys";
  }
}

// Latency attribution observes and never perturbs: with the report sink on
// (which enables attribution, epoch-free), every metric hashes to the same
// committed golden as the plain run. This is the obs-on/obs-off identity
// the v2 observability layer promises.
TEST(Determinism, MetricsGoldensV8WithAttributionEnabled) {
  const GoldenCase& c = kGoldens[0];  // gauss / S-NUCA
  harness::RunConfig cfg = golden_config(c);
  cfg.obs.latency_report_path =
      "/tmp/tdn_test_determinism_report_" + std::to_string(::getpid()) +
      ".json";
  const harness::RunResult r =
      harness::run_experiment(cfg, /*use_cache=*/false);
  EXPECT_EQ(metrics_hash(r.metrics), c.metrics)
      << "attribution-enabled run drifted from the attribution-off golden";
  std::remove(cfg.obs.latency_report_path.c_str());
}

// Two fresh in-process runs of the same config are bit-identical, key by
// key — a sharper diagnostic than the hash when something does drift.
TEST(Determinism, RepeatRunsBitIdentical) {
  const harness::RunConfig cfg = golden_config(kGoldens[2]);  // TD-NUCA
  const harness::RunResult a =
      harness::run_experiment(cfg, /*use_cache=*/false);
  const harness::RunResult b =
      harness::run_experiment(cfg, /*use_cache=*/false);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [key, value] : a.metrics) {
    const auto it = b.metrics.find(key);
    ASSERT_NE(it, b.metrics.end()) << key;
    EXPECT_EQ(value, it->second) << key;
  }
}

}  // namespace
}  // namespace tdn
