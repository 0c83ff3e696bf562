// Tests of the parallel sweep runner: serial/parallel bit-identity,
// in-process fingerprint dedup, concurrent results-cache safety, and
// malformed-cache tolerance.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "harness/results_cache.hpp"
#include "harness/sweep_runner.hpp"

using namespace tdn;
using namespace tdn::harness;

namespace {

struct CacheDirGuard {
  std::string dir;
  CacheDirGuard() {
    dir = (std::filesystem::temp_directory_path() /
           ("tdn_test_sweep_" + std::to_string(::getpid())))
              .string();
    ::setenv("TDN_CACHE_DIR", dir.c_str(), 1);
    ::unsetenv("TDN_NO_CACHE");
  }
  ~CacheDirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    ::unsetenv("TDN_CACHE_DIR");
  }
};

/// 6 distinct small configs: 3 workloads x 2 policies.
std::vector<RunConfig> six_configs() {
  std::vector<RunConfig> cfgs;
  for (const char* wl : {"md5", "lu", "knn"}) {
    for (const auto pol : {system::PolicyKind::SNuca,
                           system::PolicyKind::TdNuca}) {
      RunConfig cfg;
      cfg.workload = wl;
      cfg.policy = pol;
      cfg.params.scale = 0.1;
      cfgs.push_back(std::move(cfg));
    }
  }
  return cfgs;
}

std::vector<RunResult> sweep(const std::vector<RunConfig>& cfgs, unsigned jobs,
                             bool use_cache = false,
                             SweepStats* stats_out = nullptr) {
  SweepOptions opts;
  opts.jobs = jobs;
  opts.use_cache = use_cache;
  SweepRunner runner(opts);
  auto results = runner.run(cfgs);
  if (stats_out != nullptr) *stats_out = runner.stats();
  return results;
}

}  // namespace

TEST(FormatEta, RendersCompactDurations) {
  using harness::format_eta;
  EXPECT_EQ(format_eta(0.0), "0s");
  EXPECT_EQ(format_eta(400.0), "0s");        // rounds to nearest second
  EXPECT_EQ(format_eta(59499.0), "59s");     // just under the minute cutover
  EXPECT_EQ(format_eta(60000.0), "1m00s");
  EXPECT_EQ(format_eta(187000.0), "3m07s");
  EXPECT_EQ(format_eta(3600000.0), "1h00m");
  EXPECT_EQ(format_eta(8100000.0), "2h15m");
}

TEST(FormatEta, NonFiniteAndNegativeRenderAsDashes) {
  using harness::format_eta;
  // Regression: a first run completing in ~0 elapsed ms used to extrapolate
  // Inf/NaN into the progress line; a done>total miscount produced negative
  // remaining work. All of these must render as placeholders, never feed a
  // non-finite double into an integer cast (UB).
  EXPECT_EQ(format_eta(std::numeric_limits<double>::quiet_NaN()), "--");
  EXPECT_EQ(format_eta(std::numeric_limits<double>::infinity()), "--");
  EXPECT_EQ(format_eta(-1.0), "--");
  EXPECT_EQ(format_eta(-std::numeric_limits<double>::infinity()), "--");
}

TEST(FormatEta, ClampsBeyondNinetyNineHours) {
  using harness::format_eta;
  EXPECT_EQ(format_eta(99.0 * 3600.0 * 1000.0), "99h00m");
  EXPECT_EQ(format_eta(100.0 * 3600.0 * 1000.0), ">99h");
  EXPECT_EQ(format_eta(1e300), ">99h");
  EXPECT_EQ(format_eta(std::numeric_limits<double>::max()), ">99h");
}

TEST(SweepRunner, ParallelIsBitIdenticalToSerial) {
  const auto cfgs = six_configs();
  const auto serial = sweep(cfgs, /*jobs=*/1);
  const auto parallel = sweep(cfgs, /*jobs=*/4);
  ASSERT_EQ(serial.size(), cfgs.size());
  ASSERT_EQ(parallel.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    // Input-ordered: result i corresponds to config i in both sweeps.
    EXPECT_EQ(serial[i].workload, cfgs[i].workload) << "run " << i;
    EXPECT_EQ(parallel[i].workload, cfgs[i].workload) << "run " << i;
    EXPECT_EQ(serial[i].policy, parallel[i].policy) << "run " << i;
    // Bit-identical metrics regardless of pool scheduling order. std::map
    // equality compares every key and every double exactly.
    EXPECT_EQ(serial[i].metrics, parallel[i].metrics) << "run " << i;
  }
}

TEST(SweepRunner, DedupSimulatesEachFingerprintOnce) {
  RunConfig cfg;
  cfg.workload = "md5";
  cfg.policy = system::PolicyKind::SNuca;
  cfg.params.scale = 0.1;
  const std::vector<RunConfig> cfgs(4, cfg);
  SweepStats stats;
  const auto results = sweep(cfgs, /*jobs=*/4, /*use_cache=*/false, &stats);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(stats.runs, 4u);
  EXPECT_EQ(stats.simulated, 1u);
  EXPECT_EQ(stats.deduped, 3u);
  for (const auto& r : results) EXPECT_EQ(r.metrics, results[0].metrics);
}

TEST(SweepRunner, RecordsWallClockAndAccounting) {
  const auto cfgs = six_configs();
  SweepOptions opts;
  opts.jobs = 2;
  opts.use_cache = false;
  SweepRunner runner(opts);
  const auto results = runner.run(cfgs);
  const SweepStats& stats = runner.stats();
  EXPECT_EQ(stats.runs, 6u);
  EXPECT_EQ(stats.simulated, 6u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_GT(stats.wall_ms, 0.0);
  ASSERT_EQ(results.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_GT(results[i].wall_ms, 0.0);
    EXPECT_LE(results[i].wall_ms, stats.wall_ms);
    EXPECT_FALSE(results[i].from_cache);
  }
}

TEST(SweepRunner, SecondSweepIsServedFromCache) {
  CacheDirGuard guard;
  const auto cfgs = six_configs();
  SweepStats cold, warm;
  const auto first = sweep(cfgs, /*jobs=*/3, /*use_cache=*/true, &cold);
  const auto second = sweep(cfgs, /*jobs=*/3, /*use_cache=*/true, &warm);
  EXPECT_EQ(cold.simulated, 6u);
  EXPECT_EQ(warm.cache_hits, 6u);
  EXPECT_EQ(warm.simulated, 0u);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(first[i].metrics, second[i].metrics);
    EXPECT_TRUE(second[i].from_cache);
  }
}

TEST(ResultsCacheConcurrency, ContendingStoreLoadNeverSeesTornFiles) {
  CacheDirGuard guard;
  std::map<std::string, double> payload;
  for (int i = 0; i < 64; ++i)
    payload["metric." + std::to_string(i)] = 1.0 / (i + 1);
  const std::string key = "contended";
  constexpr int kIters = 200;

  std::thread writer_a([&] {
    for (int i = 0; i < kIters; ++i) ResultsCache::store(key, payload);
  });
  std::thread writer_b([&] {
    for (int i = 0; i < kIters; ++i) ResultsCache::store(key, payload);
  });
  std::size_t seen = 0, torn = 0;
  std::atomic<bool> writers_done{false};
  std::thread reader([&] {
    // Probe until the writers finish and at least one publish was observed:
    // store() fsyncs before renaming, so a fixed probe count could drain
    // before the first entry lands.
    while (!writers_done.load(std::memory_order_acquire) || seen == 0) {
      const auto loaded = ResultsCache::load(key);
      if (!loaded.has_value()) continue;  // not yet published: fine
      ++seen;
      // Any published file must be complete — a partial map means a reader
      // observed a torn write.
      if (*loaded != payload) ++torn;
    }
  });
  writer_a.join();
  writer_b.join();
  writers_done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn, 0u);
  EXPECT_GT(seen, 0u);
  // After the dust settles the entry round-trips exactly, and no temp files
  // leak into the cache directory.
  const auto final_load = ResultsCache::load(key);
  ASSERT_TRUE(final_load.has_value());
  EXPECT_EQ(*final_load, payload);
  for (const auto& e : std::filesystem::directory_iterator(guard.dir)) {
    EXPECT_EQ(e.path().extension(), ".csv") << e.path();
  }
}

// An entry with a malformed line is a miss, never a partial hit: the run
// re-simulates instead of lacking the torn metric forever.
TEST(ResultsCacheConcurrency, MalformedLineMakesTheEntryAMiss) {
  CacheDirGuard guard;
  std::filesystem::create_directories(guard.dir);
  {
    std::ofstream out(std::filesystem::path(guard.dir) / "mixed.csv");
    out << "good.metric,2.5\n"
        << "no comma in this line\n"
        << "torn.value,1.7e3garbage\n"
        << ",0.5\n"
        << "another.good,42\n";
  }
  EXPECT_FALSE(ResultsCache::load("mixed").has_value());
  // Each kind of malformed line alone is enough.
  for (const char* bad : {"no comma in this line", "torn.value,1.7e3garbage",
                          ",0.5", "empty.value,"}) {
    {
      std::ofstream out(std::filesystem::path(guard.dir) / "one_bad.csv");
      out << "good.metric,2.5\n" << bad << "\nanother.good,42\n";
    }
    EXPECT_FALSE(ResultsCache::load("one_bad").has_value()) << bad;
  }
  {
    std::ofstream out(std::filesystem::path(guard.dir) / "all_good.csv");
    out << "good.metric,2.5\nanother.good,42\n";
  }
  const auto loaded = ResultsCache::load("all_good");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->at("good.metric"), 2.5);
  EXPECT_DOUBLE_EQ(loaded->at("another.good"), 42.0);

  // A file with only malformed lines is a miss, not an empty result.
  {
    std::ofstream out(std::filesystem::path(guard.dir) / "allbad.csv");
    out << "garbage\nmore garbage\n";
  }
  EXPECT_FALSE(ResultsCache::load("allbad").has_value());
}
