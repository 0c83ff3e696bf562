// tdn::ckpt — snapshot codec, crash-safe snapshot files, and the
// checkpoint/restore contract for serving runs: an interrupted-and-resumed
// run finishes with bit-identical metrics (including p99/p999 tails) to an
// uninterrupted one (docs/serving.md §checkpoint/restore).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/snapshot.hpp"
#include "common/require.hpp"
#include "harness/runner.hpp"
#include "multi/mix.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/recorder.hpp"
#include "serve/serve_system.hpp"
#include "sim/event_queue.hpp"
#include "stats/registry.hpp"
#include "workloads/workload.hpp"

using namespace tdn;
using serve::ServeSystem;

namespace {

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("tdn_ckpt_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// The interrupt flag is process-global; every test that raises it must
/// lower it no matter how the assertion unwinds.
struct InterruptGuard {
  ~InterruptGuard() { ckpt::clear_interrupt(); }
};

workloads::WorkloadParams small_params() {
  workloads::WorkloadParams p;
  p.scale = 0.1;
  return p;
}

serve::ServeOptions serving() {
  serve::ServeOptions o;
  o.arrival = "poisson:gap=25k";
  o.horizon = 300'000;
  o.request_scale = 0.05;
  return o;
}

ckpt::Options cadence(const std::string& dir, Cycle every = 60'000) {
  ckpt::Options o;
  o.every = every;
  o.dir = dir;
  o.keep = 16;  // tests resume from every snapshot, not just the newest
  return o;
}

constexpr std::uint64_t kFp = 0x5eed5eed5eed5eedull;

/// Run one serving config to completion with checkpointing, collecting
/// snapshots into @p dir, and return its full metrics map.
std::map<std::string, double> reference_run(const system::SystemConfig& cfg,
                                            const multi::MixSpec& mix,
                                            const serve::ServeOptions& opts,
                                            const ckpt::Options& ck) {
  ServeSystem sys(cfg, mix, opts);
  sys.build(small_params());
  sys.set_checkpoint(ck, kFp);
  sys.run();
  EXPECT_TRUE(sys.completed());
  EXPECT_GT(sys.snapshots_written(), 0u);
  return sys.collect_stats().all();
}

/// Rebuild the machine fresh, restore @p snap, run to completion, and
/// return the final metrics map.
std::map<std::string, double> resumed_run(const system::SystemConfig& cfg,
                                          const multi::MixSpec& mix,
                                          const serve::ServeOptions& opts,
                                          const ckpt::Options& ck,
                                          const ckpt::Snapshot& snap) {
  ServeSystem sys(cfg, mix, opts);
  sys.build(small_params());
  ckpt::Options quiet = ck;
  quiet.dir.clear();  // resumed lineages fold identically but write nothing
  sys.set_checkpoint(quiet, kFp);
  sys.resume_from(snap);
  EXPECT_TRUE(sys.resumed());
  EXPECT_EQ(sys.resume_cycle(), snap.cycle);
  sys.run();
  EXPECT_TRUE(sys.completed());
  return sys.collect_stats().all();
}

/// EXPECT_EQ over whole metric maps, with a readable diff on mismatch.
void expect_metrics_identical(const std::map<std::string, double>& a,
                              const std::map<std::string, double>& b,
                              const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    ASSERT_NE(it, b.end()) << label << ": missing key " << k;
    EXPECT_EQ(v, it->second) << label << ": key " << k;
  }
}

}  // namespace

// --- codec ----------------------------------------------------------------

TEST(CkptCodec, RoundTripsEveryType) {
  ckpt::Encoder e;
  e.u8(7);
  e.u32(0xDEADBEEFu);
  e.u64(0x0123456789ABCDEFull);
  e.f64(-1234.5678e-9);
  e.str("quiescent");
  e.u64_vec({1, 0, 0xFFFFFFFFFFFFFFFFull});
  const std::string bytes = e.take();

  ckpt::Decoder d(bytes);
  EXPECT_EQ(d.u8(), 7u);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.f64(), -1234.5678e-9);
  EXPECT_EQ(d.str(), "quiescent");
  EXPECT_EQ(d.u64_vec(), (std::vector<std::uint64_t>{1, 0, 0xFFFFFFFFFFFFFFFFull}));
  EXPECT_TRUE(d.done());
}

TEST(CkptCodec, DecoderThrowsOnTruncationNeverReadsPast) {
  ckpt::Encoder e;
  e.u64(42);
  const std::string bytes = e.take();
  // The Decoder only views its input, so the truncated copy must outlive it.
  const std::string truncated = bytes.substr(0, 5);
  ckpt::Decoder d(truncated);
  EXPECT_THROW(d.u64(), ckpt::SnapshotError);
  ckpt::Decoder d2(bytes);
  (void)d2.u64();
  EXPECT_THROW(d2.u8(), ckpt::SnapshotError);
}

// --- histogram restore ----------------------------------------------------

TEST(CkptHistogram, RestoreReproducesEveryPercentile) {
  obs::LatencyHistogram h;
  for (Cycle v : {3u, 17u, 17u, 950u, 9'000u, 1'000'000u}) h.add(v);

  std::array<std::uint64_t, obs::LatencyHistogram::kBuckets> counts{};
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i)
    counts[i] = h.bucket_count(i);
  obs::LatencyHistogram r;
  r.restore(counts, h.count(), h.sum(), h.min(), h.max());

  EXPECT_EQ(r.count(), h.count());
  EXPECT_EQ(r.mean(), h.mean());
  EXPECT_EQ(r.min(), h.min());
  EXPECT_EQ(r.max(), h.max());
  for (double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_EQ(r.percentile(q), h.percentile(q)) << q;
  // A restored histogram keeps accumulating exactly like the original.
  h.add(1);
  r.add(1);
  EXPECT_EQ(r.min(), h.min());
  EXPECT_EQ(r.percentile(0.5), h.percentile(0.5));
}

// --- snapshot files -------------------------------------------------------

TEST(CkptSnapshotFile, WriteLoadRoundTripAndOrdering) {
  TempDir dir("roundtrip");
  ckpt::Options o = cadence(dir.path);
  ASSERT_TRUE(ckpt::write_snapshot(o, kFp, 100, "payload-a").has_value());
  ASSERT_TRUE(ckpt::write_snapshot(o, kFp, 250, "payload-b").has_value());

  const auto latest = ckpt::load_latest(dir.path, kFp);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->cycle, 250u);
  EXPECT_EQ(latest->payload, "payload-b");
  EXPECT_EQ(latest->config_fingerprint, kFp);
  EXPECT_FALSE(latest->emergency);

  const auto all = ckpt::load_all(dir.path, kFp);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].cycle, 100u);
  EXPECT_EQ(all[1].cycle, 250u);

  // A different configuration's snapshots are invisible.
  EXPECT_FALSE(ckpt::load_latest(dir.path, kFp ^ 1).has_value());
}

TEST(CkptSnapshotFile, PruneKeepsOnlyTheNewest) {
  TempDir dir("prune");
  ckpt::Options o = cadence(dir.path);
  o.keep = 2;
  for (Cycle c : {100u, 200u, 300u, 400u})
    ASSERT_TRUE(ckpt::write_snapshot(o, kFp, c, "p").has_value());
  const auto all = ckpt::load_all(dir.path, kFp);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].cycle, 300u);
  EXPECT_EQ(all[1].cycle, 400u);
}

TEST(CkptSnapshotFile, CorruptTornAndForeignFilesAreNeverTrusted) {
  TempDir dir("corrupt");
  ckpt::Options o = cadence(dir.path);
  const auto p1 = ckpt::write_snapshot(o, kFp, 100, "good-payload");
  const auto p2 = ckpt::write_snapshot(o, kFp, 200, "newer-payload");
  ASSERT_TRUE(p1.has_value() && p2.has_value());

  // Flip one payload byte of the newest snapshot: checksum must reject it
  // and the loader must fall back to the older valid one.
  {
    std::fstream f(*p2, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(48);  // first payload byte
    f.put('X');
  }
  std::vector<std::string> skipped;
  const auto latest = ckpt::load_latest(dir.path, kFp, &skipped);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->cycle, 100u);
  EXPECT_EQ(latest->payload, "good-payload");
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_NE(skipped[0].find(*p2), std::string::npos);

  // Truncated mid-header (a torn write that bypassed the atomic rename).
  {
    std::ofstream f(dir.path + "/snap-0000000000000000-00000000000000000300.ckpt",
                    std::ios::binary);
    f << "TDNC";
  }
  // Garbage that merely matches the name pattern.
  {
    std::ofstream f(dir.path + "/snap-junk.ckpt", std::ios::binary);
    f << std::string(64, 'z');
  }
  const auto still = ckpt::load_latest(dir.path, kFp);
  ASSERT_TRUE(still.has_value());
  EXPECT_EQ(still->cycle, 100u);
}

// --- event-queue fast-forward ---------------------------------------------

TEST(CkptEventQueue, FastForwardIsRestoreOnly) {
  sim::EventQueue eq;
  eq.fast_forward(5'000);
  EXPECT_EQ(eq.now(), 5'000u);
  int fired_at = 0;
  eq.schedule_in(10, [&] { fired_at = static_cast<int>(eq.now()); });
  eq.run_until(1'000'000);
  EXPECT_EQ(fired_at, 5'010);

  sim::EventQueue used;
  used.schedule_in(1, [] {});
  used.run_until(1'000'000);
  EXPECT_THROW(used.fast_forward(99), RequireError);
}

// --- serve checkpoint/restore: the headline guarantee ----------------------

TEST(CkptServe, ResumeFromEverySnapshotIsBitIdentical) {
  TempDir dir("bitident");
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  const multi::MixSpec mix = multi::MixSpec::parse("gauss+histo");
  const serve::ServeOptions opts = serving();
  const ckpt::Options ck = cadence(dir.path);

  const auto reference = reference_run(cfg, mix, opts, ck);
  const auto snaps = ckpt::load_all(dir.path, kFp);
  ASSERT_GE(snaps.size(), 2u) << "cadence produced too few snapshots";

  for (const ckpt::Snapshot& snap : snaps) {
    const auto resumed = resumed_run(cfg, mix, opts, ck, snap);
    expect_metrics_identical(reference, resumed,
                             "resume@" + std::to_string(snap.cycle));
  }
}

// The ISSUE acceptance bar for tdn::vm: a serving run with huge pages
// enabled checkpoints and resumes bit-identically. The snapshot carries the
// buddy allocator (payload v2 AllocState::vm_words) and cold-normalization
// drops TLBs + paging-structure caches on both lineages.
TEST(CkptServe, VmHugePagesResumeIsBitIdentical) {
  TempDir dir("vmident");
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.vm.enabled = true;
  cfg.vm.thp = vm::ThpPolicy::Always;
  cfg.vm.fragmentation = 0.5;  // exercise punctured-pool PRNG state too
  const multi::MixSpec mix = multi::MixSpec::parse("gauss+histo");
  const serve::ServeOptions opts = serving();
  const ckpt::Options ck = cadence(dir.path);

  const auto reference = reference_run(cfg, mix, opts, ck);
  // vm.pages_2m is a point-in-time gauge and the last fold drops mappings,
  // so huge-page evidence comes from monotonic counters: the buddy pool
  // hands out whole 512-frame runs, and walks only happen in vm mode.
  EXPECT_GE(reference.at("mem.frames_used"), 512.0) << "huge pages never mapped";
  EXPECT_GT(reference.at("vm.walks"), 0.0);
  const auto snaps = ckpt::load_all(dir.path, kFp);
  ASSERT_GE(snaps.size(), 2u) << "cadence produced too few snapshots";

  for (const ckpt::Snapshot& snap : snaps) {
    const auto resumed = resumed_run(cfg, mix, opts, ck, snap);
    expect_metrics_identical(reference, resumed,
                             "vm resume@" + std::to_string(snap.cycle));
  }
}

TEST(CkptServe, AdaptiveResumeIsBitIdentical) {
  TempDir dir("adaptive");
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  const multi::MixSpec mix = multi::MixSpec::parse("gauss+histo");
  serve::ServeOptions opts = serving();
  opts.adaptive = true;
  opts.epoch = 30'000;
  opts.weights = "1:3";
  // Adaptive mode: the cadence must ride the epoch-tick chain.
  const ckpt::Options ck = cadence(dir.path, 60'000);

  const auto reference = reference_run(cfg, mix, opts, ck);
  const auto snaps = ckpt::load_all(dir.path, kFp);
  ASSERT_GE(snaps.size(), 1u);
  for (const ckpt::Snapshot& snap : snaps) {
    const auto resumed = resumed_run(cfg, mix, opts, ck, snap);
    expect_metrics_identical(reference, resumed,
                             "adaptive resume@" + std::to_string(snap.cycle));
  }
}

TEST(CkptServe, AdaptiveCadenceMustRideTheEpoch) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  serve::ServeOptions opts = serving();
  opts.adaptive = true;
  opts.epoch = 30'000;
  ServeSystem sys(cfg, multi::MixSpec::parse("gauss+histo"), opts);
  sys.build(small_params());
  EXPECT_THROW(sys.set_checkpoint(cadence("", 45'000), kFp), RequireError);
}

// Satellite: a degraded machine (bank evacuation + link dog-leg rerouting)
// crossing a checkpoint/restore cycle keeps the serving invariants AND the
// bit-identity guarantee — fault health is replayed into the rebuilt
// machine, not re-simulated.
TEST(CkptServe, DegradedModeSurvivesRestore) {
  TempDir dir("degraded");
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.fault.plan = "bank_fail@3:cycle=40k,link_fail@(1,1)-(2,1):cycle=200k";
  const multi::MixSpec mix = multi::MixSpec::parse("gauss+histo");
  const serve::ServeOptions opts = serving();
  const ckpt::Options ck = cadence(dir.path);

  const auto reference = reference_run(cfg, mix, opts, ck);
  EXPECT_EQ(reference.at("serve.offered"),
            reference.at("serve.shed") + reference.at("serve.completed"));

  const auto snaps = ckpt::load_all(dir.path, kFp);
  ASSERT_GE(snaps.size(), 2u);
  // Folds only land at quiescent points, so their cycles shift with the
  // degraded machine's drains — but the newest snapshot must follow both
  // faults, so restoring it replays the whole plan (dead bank + dead link)
  // as health-state mutations into the rebuilt machine.
  EXPECT_GT(snaps.front().cycle, 40'000u);
  EXPECT_GT(snaps.back().cycle, 200'000u);

  for (const ckpt::Snapshot& snap : snaps) {
    const auto resumed = resumed_run(cfg, mix, opts, ck, snap);
    expect_metrics_identical(reference, resumed,
                             "degraded resume@" + std::to_string(snap.cycle));
    EXPECT_EQ(resumed.at("serve.offered"),
              resumed.at("serve.shed") + resumed.at("serve.completed"));
    EXPECT_LE(resumed.at("serve.queue.max_depth"),
              static_cast<double>(opts.max_pending));
  }
}

// --- interruption ---------------------------------------------------------

TEST(CkptServe, InterruptPublishesEmergencySnapshotThatResumes) {
  TempDir dir("interrupt");
  InterruptGuard guard;
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  const multi::MixSpec mix = multi::MixSpec::parse("gauss+histo");
  const serve::ServeOptions opts = serving();
  const ckpt::Options ck = cadence(dir.path);

  ServeSystem sys(cfg, mix, opts);
  sys.build(small_params());
  sys.set_checkpoint(ck, kFp);
  // Raised before run(): the first control event polls it, drains to the
  // next quiescent point, publishes the emergency snapshot and unwinds.
  ckpt::request_interrupt();
  EXPECT_THROW(sys.run(), ckpt::InterruptedError);
  EXPECT_FALSE(sys.completed());

  const auto latest = ckpt::load_latest(dir.path, kFp);
  ASSERT_TRUE(latest.has_value());
  EXPECT_TRUE(latest->emergency);

  ckpt::clear_interrupt();
  const auto resumed = resumed_run(cfg, mix, opts, ck, *latest);
  EXPECT_EQ(resumed.at("serve.offered"),
            resumed.at("serve.shed") + resumed.at("serve.completed"));
  EXPECT_GT(resumed.at("serve.completed"), 0.0);
  EXPECT_GE(resumed.at("serve.sojourn.p999"), resumed.at("serve.sojourn.p99"));
}

// --- guard rails ----------------------------------------------------------

TEST(CkptServe, ResumeRejectsForeignOrInconsistentSnapshots) {
  TempDir dir("reject");
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  const multi::MixSpec mix = multi::MixSpec::parse("gauss+histo");
  const serve::ServeOptions opts = serving();
  const ckpt::Options ck = cadence(dir.path);
  (void)reference_run(cfg, mix, opts, ck);
  const auto snaps = ckpt::load_all(dir.path, kFp);
  ASSERT_GE(snaps.size(), 1u);

  // Wrong fingerprint: refused before any payload is touched.
  {
    ServeSystem sys(cfg, mix, opts);
    sys.build(small_params());
    sys.set_checkpoint(ck, kFp ^ 0xBAD);
    EXPECT_THROW(sys.resume_from(snaps[0]), RequireError);
  }
  // Same fingerprint claim, different actual configuration: the regenerated
  // trace disagrees with the snapshot and validation rejects it.
  {
    serve::ServeOptions other = serving();
    other.arrival = "poisson:gap=12k";
    ServeSystem sys(cfg, mix, other);
    sys.build(small_params());
    sys.set_checkpoint(ck, kFp);
    EXPECT_THROW(sys.resume_from(snaps[0]), RequireError);
  }
  // Truncated payload: decoding must fail loudly, never misinterpret.
  {
    ckpt::Snapshot torn = snaps[0];
    torn.payload.resize(torn.payload.size() / 2);
    ServeSystem sys(cfg, mix, opts);
    sys.build(small_params());
    sys.set_checkpoint(ck, kFp);
    EXPECT_THROW(sys.resume_from(torn), ckpt::SnapshotError);
  }
}

TEST(CkptServe, WatchdogIsArmedAndQuietInServingRuns) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.fault.watchdog_budget = 50'000;
  ServeSystem sys(cfg, multi::MixSpec::parse("gauss+histo"), serving());
  sys.build(small_params());
  EXPECT_EQ(sys.watchdog(), nullptr);  // built lazily by run()
  sys.run();
  ASSERT_NE(sys.watchdog(), nullptr);
  EXPECT_FALSE(sys.watchdog()->fired());
  EXPECT_GT(sys.watchdog()->ticks(), 0u);
}

// No checkpoint resets a counter, so a checkpointed serving run's
// observation adds up to its metrics: the bank-access heatmap to
// llc.accesses and the per-core TLB-miss epoch series to tlb.misses. The
// config is the checkpointed serving row of the determinism goldens.
TEST(CkptServe, ObservationAgreesWithMetrics) {
  TempDir dir("observe");
  harness::RunConfig cfg;
  cfg.workload = "gauss+histo";
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.serve.arrival = "poisson:gap=40k";
  cfg.serve.request_scale = 0.02;
  cfg.ckpt.every = 200'000;
  cfg.ckpt.dir = dir.path;
  system::SystemConfig sys_cfg = cfg.sys;
  sys_cfg.policy = cfg.policy;
  obs::RecorderConfig rc;
  rc.epochs = true;
  rc.heatmaps = true;
  obs::Recorder rec(rc);
  ServeSystem sys(sys_cfg, multi::MixSpec::parse(cfg.workload), cfg.serve,
                  &rec);
  sys.build(cfg.params);
  sys.set_checkpoint(cfg.ckpt, cfg.fingerprint());
  sys.run();
  ASSERT_TRUE(sys.completed());
  EXPECT_GE(sys.snapshots_written(), 2u);
  const stats::Registry m = sys.collect_stats();

  // Heatmap cells: the numbers of the named map's "rows" array.
  const std::string hm = rec.heatmaps_json();
  const std::size_t at = hm.find("\"llc_bank_accesses\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t rows = hm.find("[[", at);
  const std::size_t end = hm.find("]]", rows);
  ASSERT_NE(end, std::string::npos);
  std::string cells = hm.substr(rows, end - rows);
  for (char& c : cells)
    if (c == '[' || c == ']' || c == ',') c = ' ';
  double bank_accesses = 0.0;
  std::istringstream in(cells);
  for (double v; in >> v;) bank_accesses += v;
  EXPECT_GT(m.get("llc.accesses"), 0.0);
  EXPECT_EQ(bank_accesses, m.get("llc.accesses"));

  // Epoch CSV: sum every row of the mem.coreN.tlb_misses columns.
  std::istringstream csv(rec.epochs_csv());
  std::string line;
  std::getline(csv, line);
  std::vector<bool> tlb_col;
  {
    std::istringstream header(line);
    const std::string suffix = ".tlb_misses";
    for (std::string name; std::getline(header, name, ',');)
      tlb_col.push_back(name.rfind("mem.core", 0) == 0 &&
                        name.size() > suffix.size() &&
                        name.compare(name.size() - suffix.size(),
                                     suffix.size(), suffix) == 0);
  }
  double tlb_misses = 0.0;
  while (std::getline(csv, line)) {
    std::istringstream row(line);
    std::size_t col = 0;
    for (std::string v; std::getline(row, v, ','); ++col)
      if (col < tlb_col.size() && tlb_col[col]) tlb_misses += std::stod(v);
  }
  EXPECT_GT(m.get("tlb.misses"), 0.0);
  EXPECT_EQ(tlb_misses, m.get("tlb.misses"));
}

// --- harness plumbing -----------------------------------------------------

TEST(CkptHarness, FingerprintCoversCadenceNotPlumbing) {
  harness::RunConfig base;
  base.workload = "gauss+histo";
  base.policy = system::PolicyKind::TdNuca;
  base.serve.arrival = "poisson:gap=25k";

  harness::RunConfig with_ckpt = base;
  with_ckpt.ckpt.every = 60'000;
  EXPECT_NE(base.fingerprint(), with_ckpt.fingerprint());

  harness::RunConfig other_cadence = with_ckpt;
  other_cadence.ckpt.every = 120'000;
  EXPECT_NE(with_ckpt.fingerprint(), other_cadence.fingerprint());

  // dir / resume / keep are harness plumbing, not simulated behavior.
  harness::RunConfig plumbing = with_ckpt;
  plumbing.ckpt.dir = "/somewhere/else";
  plumbing.ckpt.resume = true;
  plumbing.ckpt.keep = 9;
  EXPECT_EQ(with_ckpt.fingerprint(), plumbing.fingerprint());

  // Checkpoint options without serving never alter a closed run's key.
  harness::RunConfig closed;
  closed.workload = "gauss";
  harness::RunConfig closed_ck = closed;
  closed_ck.ckpt.every = 60'000;
  EXPECT_EQ(closed.fingerprint(), closed_ck.fingerprint());
}

TEST(CkptHarness, RunExperimentResumesFromTheNewestSnapshot) {
  TempDir dir("harness");
  ::setenv("TDN_NO_CACHE", "1", 1);
  harness::RunConfig cfg;
  cfg.workload = "gauss+histo";
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.params = small_params();
  cfg.serve.arrival = "poisson:gap=25k";
  cfg.serve.horizon = 300'000;
  cfg.serve.request_scale = 0.05;
  cfg.ckpt = cadence(dir.path);

  const auto reference = harness::run_experiment(cfg, /*use_cache=*/false);
  ASSERT_FALSE(ckpt::load_all(dir.path, cfg.fingerprint()).empty());

  cfg.ckpt.resume = true;
  const auto resumed = harness::run_experiment(cfg, /*use_cache=*/false);
  EXPECT_EQ(reference.metrics, resumed.metrics);
  ::unsetenv("TDN_NO_CACHE");
}
