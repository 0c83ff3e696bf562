// Tests of tdn::obs — the trace / epoch / heatmap recorder — and its
// integration with the full system: valid Chrome-trace JSON with monotone
// timestamps, epoch row-count arithmetic, heatmap shapes, harness artifact
// writing, and the determinism contract (identical Registry metrics with
// recording on and off).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "harness/runner.hpp"
#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"
#include "system/tiled_system.hpp"

using namespace tdn;
using namespace tdn::obs;

namespace {

/// Minimal recursive-descent JSON syntax checker — enough to catch broken
/// escaping, trailing commas and unbalanced brackets in the emitters.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    ws();
    if (peek('}')) return true;
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (!expect(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    ws();
    if (peek(']')) return true;
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (!expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    return expect('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek('-')) {}
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  void ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// All "ts": values in document order.
std::vector<long long> extract_ts(const std::string& json) {
  std::vector<long long> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::stoll(json.substr(pos)));
  }
  return out;
}

void tiny_program(system::TiledSystem& sys, int tasks = 8) {
  auto& rt = sys.runtime();
  for (int i = 0; i < tasks; ++i) {
    const AddrRange r = sys.vspace().allocate(16 * kKiB, 64, "r");
    const DepId d = rt.region(r, "r");
    core::TaskProgram p;
    core::AccessPhase ph;
    ph.range = r;
    ph.kind = (i % 2 != 0) ? AccessKind::Write : AccessKind::Read;
    p.add_phase(ph);
    rt.create_task(std::string("t").append(std::to_string(i)),
                   {{d, i % 2 != 0 ? DepUse::Out : DepUse::In}},
                   std::move(p));
  }
}

RecorderConfig all_on(Cycle epoch = 5'000) {
  RecorderConfig rc;
  rc.trace = true;
  rc.epochs = true;
  rc.heatmaps = true;
  rc.trace_coherence = true;
  rc.epoch_cycles = epoch;
  return rc;
}

struct TmpDir {
  std::filesystem::path dir;
  TmpDir() {
    dir = std::filesystem::temp_directory_path() /
          ("tdn_test_obs_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
  }
  ~TmpDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  std::string path(const char* name) const { return (dir / name).string(); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Recorder unit behaviour
// ---------------------------------------------------------------------------

TEST(Recorder, DisabledRecordsNothing) {
  Recorder rec;  // default config: everything off
  rec.span(0, "task", "t", 0, 10, "\"a\":1");
  rec.instant(1, "coherence", "GetS");
  rec.set_track_name(0, "core 0");
  rec.add_series("s", [] { return 1.0; });
  rec.add_heatmap("h", 2, 2, [] { return std::vector<double>(4, 0.0); });
  EXPECT_EQ(rec.trace_events(), 0u);
  EXPECT_EQ(rec.epoch_series(), 0u);
  EXPECT_EQ(rec.heatmap_count(), 0u);
  sim::EventQueue eq;
  rec.arm(eq);
  EXPECT_EQ(eq.pending(), 0u);
}

TEST(Recorder, TraceJsonIsValidAndSorted) {
  RecorderConfig rc;
  rc.trace = true;
  Recorder rec(rc);
  rec.set_track_name(0, "core \"zero\"\n");  // exercises escaping
  // Emit out of order: trace_json must sort by ts.
  rec.span(0, "task", "late", 500, 10);
  rec.span(0, "task", "early", 5, 20, "\"id\":1");
  rec.instant(1, "runtime", "mid");
  const std::string json = rec.trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  const auto ts = extract_ts(json);
  ASSERT_EQ(ts.size(), 3u);  // metadata events carry no ts
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LE(ts[i - 1], ts[i]);
}

TEST(Recorder, EpochSamplerRowArithmetic) {
  RecorderConfig rc;
  rc.epochs = true;
  rc.epoch_cycles = 100;
  Recorder rec(rc);
  int calls = 0;
  rec.add_series("n", [&] { return static_cast<double>(++calls); });

  sim::EventQueue eq;
  rec.attach_clock(&eq);
  // One real event every 90 cycles, ten of them: makespan M = 900.
  for (int i = 1; i <= 10; ++i) eq.schedule_at(i * 90, [] {});
  rec.arm(eq);
  eq.run();

  // Ticks land on multiples of epoch_cycles; the sampler keeps ticking
  // while real events are pending plus one tail sample, so with M = 900 and
  // N = 100 we get rows at 100..900 or 100..1000.
  const std::size_t rows = rec.epoch_rows();
  EXPECT_TRUE(rows == 9 || rows == 10) << rows;
  const std::string csv = rec.epochs_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "cycle,n");
  // Row i carries cycle (i+1)*N.
  std::size_t line_start = csv.find('\n') + 1;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t comma = csv.find(',', line_start);
    EXPECT_EQ(csv.substr(line_start, comma - line_start),
              std::to_string((i + 1) * 100));
    line_start = csv.find('\n', comma) + 1;
  }
  EXPECT_TRUE(JsonChecker(rec.epochs_json()).valid());
}

// Every front-end arms its recorder once, from its one run(); a second arm
// would start a second tick chain and double every epoch row.
TEST(Recorder, ArmTwiceFailsLoudly) {
  RecorderConfig rc;
  rc.epochs = true;
  rc.epoch_cycles = 100;
  Recorder rec(rc);
  int probes = 0;
  rec.add_series("n", [&] { return static_cast<double>(++probes); });

  sim::EventQueue eq;
  rec.attach_clock(&eq);
  for (int i = 1; i <= 5; ++i) eq.schedule_at(i * 100 - 10, [] {});
  rec.arm(eq);
  EXPECT_THROW(rec.arm(eq), RequireError);
  EXPECT_EQ(eq.observer_pending(), 1u);
  eq.run();
  EXPECT_EQ(rec.epoch_rows(), 5u);  // ticks at 100..500, sampled once each
  EXPECT_EQ(probes, 5);
}

TEST(Recorder, SamplerDoesNotPerturbEventAccounting) {
  sim::EventQueue eq;
  int ran = 0;
  eq.schedule_at(50, [&] { ++ran; });
  eq.schedule_at(250, [&] { ++ran; });

  RecorderConfig rc;
  rc.epochs = true;
  rc.epoch_cycles = 100;
  Recorder rec(rc);
  rec.attach_clock(&eq);
  rec.add_series("x", [] { return 0.0; });
  rec.arm(eq);

  eq.run();
  EXPECT_EQ(ran, 2);
  // Observer ticks are excluded from the executed() count benchmarks export.
  EXPECT_EQ(eq.executed(), 2u);
  EXPECT_GE(rec.epoch_rows(), 2u);
}

TEST(Recorder, HeatmapShapeAndOutput) {
  RecorderConfig rc;
  rc.heatmaps = true;
  Recorder rec(rc);
  rec.add_heatmap("grid", 2, 3, [] {
    return std::vector<double>{1, 2, 3, 4, 5, 6.5};
  });
  EXPECT_EQ(rec.heatmap_count(), 1u);
  const std::string text = rec.heatmaps_text();
  EXPECT_NE(text.find("# grid (2x3)"), std::string::npos);
  EXPECT_TRUE(JsonChecker(rec.heatmaps_json()).valid());
  EXPECT_NE(rec.heatmaps_json().find("\"w\":2,\"h\":3"), std::string::npos);

  Recorder bad(rc);
  bad.add_heatmap("wrong", 2, 2, [] { return std::vector<double>(3, 0.0); });
  EXPECT_THROW(bad.heatmaps_text(), RequireError);
}

// ---------------------------------------------------------------------------
// Full-system integration
// ---------------------------------------------------------------------------

TEST(ObsSystem, FullRunProducesAllSinks) {
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  Recorder rec(all_on(1'000));
  system::TiledSystem sys(cfg, &rec);
  tiny_program(sys, 16);
  const Cycle makespan = sys.run(/*cycle_limit=*/50'000'000);
  ASSERT_GT(makespan, 0u);

  // Trace: valid JSON, one span per task, monotone timestamps.
  const std::string json = rec.trace_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_GE(rec.trace_events(), 16u);
  EXPECT_NE(json.find("\"cat\":\"task\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"isa\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flush\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"coherence\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  const auto ts = extract_ts(json);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LE(ts[i - 1], ts[i]);

  // Epochs: ticks continue at least until the makespan (tasks keep real
  // events pending), and at most a few epochs longer while the end-of-run
  // flush traffic drains from the queue.
  const std::size_t min_rows = (makespan + 999) / 1'000;
  EXPECT_GE(rec.epoch_rows(), min_rows)
      << rec.epoch_rows() << " rows for makespan " << makespan;
  EXPECT_LE(rec.epoch_rows(), min_rows + 4)
      << rec.epoch_rows() << " rows for makespan " << makespan;
  // Per-bank hit-ratio and occupancy series for all 16 banks, plus RRT,
  // ready-queue, NoC and DRAM probes.
  EXPECT_GE(rec.epoch_series(), 2u * 16u + 16u + 2u);
  const std::string csv = rec.epochs_csv();
  EXPECT_NE(csv.find("llc.bank0.hit_ratio"), std::string::npos);
  EXPECT_NE(csv.find("llc.bank15.occupancy"), std::string::npos);
  EXPECT_NE(csv.find("rrt.core0.entries"), std::string::npos);
  EXPECT_NE(csv.find("runtime.ready_tasks"), std::string::npos);
  EXPECT_NE(csv.find("noc.t0.e.util"), std::string::npos);
  EXPECT_NE(csv.find("dram.mc0.backlog"), std::string::npos);

  // Heatmaps: 4x4 bank and link matrices.
  EXPECT_GE(rec.heatmap_count(), 7u);
  const std::string hm = rec.heatmaps_text();
  EXPECT_NE(hm.find("# llc_bank_accesses (4x4)"), std::string::npos);
  EXPECT_NE(hm.find("# noc_link_bytes_e (4x4)"), std::string::npos);
  EXPECT_TRUE(JsonChecker(rec.heatmaps_json()).valid());
}

TEST(ObsSystem, RecordingPreservesDeterminism) {
  for (const auto kind :
       {system::PolicyKind::SNuca, system::PolicyKind::TdNuca}) {
    system::SystemConfig cfg;
    cfg.policy = kind;

    system::TiledSystem plain(cfg);
    tiny_program(plain, 12);
    plain.run(/*cycle_limit=*/50'000'000);

    Recorder rec(all_on(500));
    system::TiledSystem recorded(cfg, &rec);
    tiny_program(recorded, 12);
    recorded.run(/*cycle_limit=*/50'000'000);

    // Bit-identical metrics: the recorder observes and never perturbs.
    EXPECT_EQ(plain.collect_stats().all(), recorded.collect_stats().all())
        << system::to_string(kind);
    EXPECT_GT(rec.trace_events(), 0u);
  }
}

TEST(ObsSystem, CycleLimitedRunDropsPendingSamplerTick) {
  system::SystemConfig cfg;
  Recorder rec(all_on(1'000));
  system::TiledSystem sys(cfg, &rec);
  tiny_program(sys, 4);
  // A generous limit: the run completes; the final rescheduled observer
  // tick (if any) past the makespan must not wedge or throw.
  const Cycle makespan = sys.run(/*cycle_limit=*/50'000'000);
  EXPECT_GT(makespan, 0u);
  EXPECT_TRUE(sys.completed());
}

// ---------------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------------

TEST(ObsHarness, RunExperimentWritesArtifacts) {
  TmpDir tmp;
  ::setenv("TDN_NO_CACHE", "1", 1);
  harness::RunConfig cfg;
  cfg.workload = "md5";
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.params.scale = 0.1;
  cfg.obs.trace_path = tmp.path("trace.json");
  cfg.obs.epochs_csv_path = tmp.path("epochs.csv");
  cfg.obs.epochs_json_path = tmp.path("epochs.json");
  cfg.obs.heatmaps_path = tmp.path("heatmaps.txt");
  cfg.obs.heatmaps_json_path = tmp.path("heatmaps.json");
  cfg.obs.epoch_cycles = 2'000;

  harness::ObsArtifacts arts;
  const auto r = harness::run_experiment(cfg, /*use_cache=*/true, &arts);
  ::unsetenv("TDN_NO_CACHE");

  EXPECT_GT(r.get("sim.cycles"), 0.0);
  EXPECT_GT(arts.trace_events, 0u);
  EXPECT_GT(arts.epoch_rows, 0u);
  EXPECT_GT(arts.epoch_series, 0u);
  EXPECT_GT(arts.heatmaps, 0u);
  EXPECT_EQ(arts.files_written.size(), 5u);
  for (const std::string& f : arts.files_written) {
    EXPECT_TRUE(std::filesystem::exists(f)) << f;
    EXPECT_GT(std::filesystem::file_size(f), 0u) << f;
  }
  // The written trace parses.
  std::ifstream in(cfg.obs.trace_path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(JsonChecker(ss.str()).valid());
}

TEST(ObsHarness, ObsOptionsMapToRecorderConfig) {
  harness::ObsOptions o;
  EXPECT_FALSE(o.any());
  EXPECT_FALSE(o.recorder_config().any());
  o.trace_path = "t.json";
  o.trace_coherence = true;
  o.epoch_cycles = 123;
  EXPECT_TRUE(o.any());
  const auto rc = o.recorder_config();
  EXPECT_TRUE(rc.trace);
  EXPECT_TRUE(rc.trace_coherence);
  EXPECT_FALSE(rc.epochs);
  EXPECT_FALSE(rc.heatmaps);
  EXPECT_EQ(rc.epoch_cycles, 123u);
  harness::ObsOptions e;
  e.epochs_csv_path = "e.csv";
  EXPECT_TRUE(e.recorder_config().epochs);
  harness::ObsOptions h;
  h.heatmaps_json_path = "h.json";
  EXPECT_TRUE(h.recorder_config().heatmaps);
}

TEST(ObsHarness, DeterminismThroughRunner) {
  ::setenv("TDN_NO_CACHE", "1", 1);
  TmpDir tmp;
  harness::RunConfig plain;
  plain.workload = "md5";
  plain.policy = system::PolicyKind::TdNuca;
  plain.params.scale = 0.1;
  harness::RunConfig obs = plain;
  obs.obs.trace_path = tmp.path("trace.json");
  obs.obs.epochs_csv_path = tmp.path("epochs.csv");

  const auto a = harness::run_experiment(plain, /*use_cache=*/false);
  const auto b = harness::run_experiment(obs, /*use_cache=*/true);
  ::unsetenv("TDN_NO_CACHE");
  EXPECT_EQ(a.metrics, b.metrics);
}
