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
  const char* weights = "";  ///< serving tenant weights; "" = equal
};

// Schema v9 goldens. v9 dropped the fingerprint slots of deleted fields and
// keys the colocation options only for closed mixes, so every fingerprint
// moved. Every metrics hash held except the three serving rows', which
// moved only by keys: serving exports the machine's key set closed runs do
// (cache.forced_unsafe_evictions, flush.busy_cycles, llc.bankN.*,
// mem.coreN.tlb_*, rrt.*, tdnuca.*, rnuca.* when adaptive, and appK.llc.*
// in place of serve.slotK.llc.*), with no shared value changed.
const GoldenCase kGoldens[] = {
    {"gauss", system::PolicyKind::SNuca, 0x35d13b4a09636933ull,
     0xb4d29d2e391d7bf8ull},
    {"histo", system::PolicyKind::RNuca, 0x3a2b0a26da4be8f0ull,
     0xa32be5730695fe6full},
    {"jacobi", system::PolicyKind::TdNuca, 0x3c6795a7bb219e00ull,
     0xf2def87b56b8b1b1ull},
    // The configs MultiProgram.FingerprintGoldenV9 and
    // ServeHarness.FingerprintGoldenV9 pin, scaled down to keep each run
    // under a second: the colocated and serving front-ends get the same
    // metrics oracle as the tiled one.
    {"gauss+histo", system::PolicyKind::TdNuca, 0xb91709f2106805d8ull,
     0xd887461815ac028cull, 0.125},
    {"gauss+histo", system::PolicyKind::TdNuca, 0x66dc09889e7427e6ull,
     0x3447a58dcfa1c824ull, 0.02, "poisson:gap=40k"},
    {"gauss+histo", system::PolicyKind::TdNuca, 0xed8fa469bd7aa827ull,
     0xc35de763c251af9dull, 0.02, "poisson:gap=40k", /*adaptive=*/true},
    // The adaptive row above switches policy only between dispatches and
    // never serves a request under R-NUCA. Skewed weights make the switcher
    // flip three times with requests on both sides, so slots dispatch under
    // R-NUCA (census 15 private, 4 shared-RO, 2,833 shared pages).
    {"gauss+histo", system::PolicyKind::TdNuca, 0x65fdff8c7aa46a76ull,
     0xecb5737f7db22d95ull, 0.02, "poisson:gap=40k", /*adaptive=*/true,
     false, "", 0, /*weights=*/"1:9"},
    // One row per machine feature the rows above leave off: page walks
    // through the hierarchy in a tiled run and in a mix, a bank failure plus
    // an RRT soft error, and checkpointed serving (the cadence runs the
    // drain and cold reset; with no directory no snapshot is written).
    {"randtouch", system::PolicyKind::TdNuca, 0x08d88d923be62555ull,
     0xafb28c4f517c07c2ull, 0.25, "", false, /*vm=*/true},
    {"kmeans", system::PolicyKind::TdNuca, 0x134dd571d9d553ccull,
     0x559fbbbd7cabbc6bull, 0.25, "", false, false,
     "bank_fail@3:cycle=5k,rrt_flip@core0:cycle=20k"},
    {"randtouch+kmeans", system::PolicyKind::TdNuca, 0x0a62fa3025816f6cull,
     0x6f380ec6716e697aull, 0.125, "", false, /*vm=*/true},
    {"gauss+histo", system::PolicyKind::TdNuca, 0xcba768a5f12e75f3ull,
     0xa7f9dca6ed79ab7dull, 0.02, "poisson:gap=40k", false, false, "",
     /*ckpt_every=*/200'000},
    // The two TD-NUCA study variants: the dry run (Sec. V-E: bookkeeping
    // only, the hierarchy places as S-NUCA) and bypass-only (Fig. 15).
    {"gauss", system::PolicyKind::TdNucaDryRun, 0x2b6a6270fb28cfbfull,
     0xe693f2085a1a58bbull},
    {"gauss", system::PolicyKind::TdNucaBypassOnly, 0x502ff8d1d1165ae2ull,
     0xd26ee8c53e44ca75ull},
};

harness::RunConfig golden_config(const GoldenCase& c) {
  harness::RunConfig cfg;
  cfg.workload = c.workload;
  cfg.policy = c.policy;
  cfg.serve.arrival = c.arrival;
  cfg.serve.adaptive = c.adaptive;
  cfg.serve.weights = c.weights;
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

TEST(Determinism, FingerprintGoldensV9) {
  for (const GoldenCase& c : kGoldens) {
    const harness::RunConfig cfg = golden_config(c);
    EXPECT_EQ(cfg.fingerprint(), c.fingerprint)
        << cfg.describe() << " fingerprint 0x" << std::hex
        << cfg.fingerprint();
  }
}

TEST(Determinism, MetricsGoldensV9) {
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
TEST(Determinism, MetricsGoldensV9WithAttributionEnabled) {
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
