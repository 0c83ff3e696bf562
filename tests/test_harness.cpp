// Tests of the experiment harness: runner, results cache, paper references,
// figure formatting.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "harness/figures.hpp"
#include "harness/paper_ref.hpp"
#include "harness/results_cache.hpp"
#include "harness/runner.hpp"
#include "workloads/workload.hpp"

using namespace tdn;
using namespace tdn::harness;

namespace {
struct CacheDirGuard {
  std::string dir;
  CacheDirGuard() {
    dir = (std::filesystem::temp_directory_path() /
           ("tdn_test_cache_" + std::to_string(::getpid())))
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
}  // namespace

TEST(GeometricMean, Basics) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(geometric_mean({3.0}), 3.0);
  EXPECT_THROW(geometric_mean({}), RequireError);
  EXPECT_THROW(geometric_mean({1.0, -1.0}), RequireError);
}

TEST(ResultsCache, RoundTrip) {
  CacheDirGuard guard;
  std::map<std::string, double> m{{"a", 1.5}, {"b", 2.0}};
  ResultsCache::store("key1", m);
  const auto loaded = ResultsCache::load("key1");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, m);
  EXPECT_FALSE(ResultsCache::load("missing").has_value());
}

TEST(ResultsCache, DisabledByEnv) {
  CacheDirGuard guard;
  ::setenv("TDN_NO_CACHE", "1", 1);
  EXPECT_FALSE(ResultsCache::enabled());
  ResultsCache::store("k", {{"a", 1.0}});
  EXPECT_FALSE(ResultsCache::load("k").has_value());
  ::unsetenv("TDN_NO_CACHE");
}

// A torn line in a stored entry makes it a miss: the next run re-simulates
// with the full key set and overwrites the entry, and the run after that
// is a full hit again.
TEST(ResultsCache, TornEntryIsResimulatedAndRewritten) {
  CacheDirGuard guard;
  RunConfig cfg;
  cfg.workload = "md5";
  cfg.policy = system::PolicyKind::SNuca;
  cfg.params.scale = 0.1;
  const RunResult first = run_experiment(cfg, /*use_cache=*/true);
  ASSERT_FALSE(first.from_cache);
  ASSERT_TRUE(first.has("llc.accesses"));

  std::vector<std::filesystem::path> entries;
  for (const auto& e : std::filesystem::directory_iterator(guard.dir))
    entries.push_back(e.path());
  ASSERT_EQ(entries.size(), 1u);
  std::string text;
  {
    std::ifstream in(entries[0]);
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  const auto at = text.find("\nllc.accesses,");
  ASSERT_NE(at, std::string::npos);
  text.insert(text.find('\n', at + 1), "garbage");  // a torn value
  {
    std::ofstream out(entries[0], std::ios::trunc);
    out << text;
  }

  const RunResult second = run_experiment(cfg, /*use_cache=*/true);
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(second.metrics, first.metrics);
  const RunResult third = run_experiment(cfg, /*use_cache=*/true);
  EXPECT_TRUE(third.from_cache);
  EXPECT_EQ(third.metrics, first.metrics);
  EXPECT_NO_THROW(third.get("llc.accesses"));
}

TEST(Runner, ExperimentProducesMetrics) {
  CacheDirGuard guard;
  RunConfig cfg;
  cfg.workload = "md5";
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.params.scale = 0.1;
  const auto r = run_experiment(cfg, /*use_cache=*/false);
  EXPECT_EQ(r.workload, "md5");
  EXPECT_EQ(r.policy, "TD-NUCA");
  EXPECT_GT(r.get("sim.cycles"), 0.0);
  EXPECT_GT(r.get("workload.num_tasks"), 0.0);
  EXPECT_TRUE(r.has("fig3.td.notreused_blocks"));
  EXPECT_THROW(r.get("no.such.metric"), RequireError);
}

TEST(Runner, CacheReturnsIdenticalResults) {
  CacheDirGuard guard;
  RunConfig cfg;
  cfg.workload = "md5";
  cfg.policy = system::PolicyKind::SNuca;
  cfg.params.scale = 0.1;
  const auto first = run_experiment(cfg, true);   // simulates + stores
  const auto second = run_experiment(cfg, true);  // loads from cache
  EXPECT_EQ(first.metrics, second.metrics);
}

TEST(Runner, FingerprintSeparatesConfigs) {
  RunConfig a;
  a.workload = "md5";
  RunConfig b = a;
  b.params.scale = 0.5;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  RunConfig c = a;
  c.policy = system::PolicyKind::RNuca;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(Runner, FindResult) {
  std::vector<RunResult> rs;
  RunResult r;
  r.workload = "lu";
  r.policy = "S-NUCA";
  r.metrics["x"] = 7;
  rs.push_back(r);
  EXPECT_DOUBLE_EQ(find_result(rs, "lu", system::PolicyKind::SNuca).get("x"),
                   7.0);
  EXPECT_THROW(find_result(rs, "lu", system::PolicyKind::TdNuca),
               RequireError);
}

TEST(PaperRef, KnownValues) {
  EXPECT_DOUBLE_EQ(*paper::fig8_speedup_td("lu"), 1.59);
  EXPECT_DOUBLE_EQ(*paper::fig8_speedup_td("gauss"), 1.26);
  EXPECT_DOUBLE_EQ(*paper::fig9_llc_accesses_td("md5"), 0.14);
  EXPECT_FALSE(paper::fig8_speedup_td("bogus").has_value());
  EXPECT_DOUBLE_EQ(paper::kFig8AvgTd, 1.18);
  EXPECT_DOUBLE_EQ(paper::kFig12AvgTd, 0.62);
}

TEST(Figures, NormalizedTableBuilds) {
  // Synthesize a result set: S-NUCA baseline 100 cycles, TD 50 everywhere.
  std::vector<RunResult> rs;
  for (const auto& w : workloads::paper_workload_names()) {
    RunResult s;
    s.workload = w;
    s.policy = "S-NUCA";
    s.metrics["sim.cycles"] = 100;
    rs.push_back(s);
    RunResult t;
    t.workload = w;
    t.policy = "TD-NUCA";
    t.metrics["sim.cycles"] = 50;
    rs.push_back(t);
  }
  NormalizedFigure fig;
  fig.title = "test";
  fig.metric = "sim.cycles";
  fig.invert = true;  // speedup
  fig.policies = {system::PolicyKind::TdNuca};
  fig.paper_ref = paper::fig8_speedup_td;
  fig.paper_avg = paper::kFig8AvgTd;
  const auto [table, gm] = normalized_table(fig, rs);
  EXPECT_DOUBLE_EQ(gm, 2.0);
  EXPECT_NE(table.to_string().find("geomean"), std::string::npos);
}
