// Microbenchmarks of the tdn::obs layer, proving two contracts:
//
//  1. Zero-cost when disabled — the instrumented L1-hit and LLC-miss paths
//     with a disabled Recorder attached must match the null-recorder paths
//     to within run-to-run noise (the overhead ratios hover around 1.0).
//  2. Bounded cost when enabled — histogram recording, latency-attribution
//     stamping, and the end-to-end --latency-report pipeline each get a
//     headline ns/op (or wall-clock) number that the committed baseline
//     gates against.
//
// Self-contained binary (no google-benchmark): emits a machine-readable
// JSON report (schema tdn-bench-obs-v1) consumed by
// scripts/check_perf_regression.py against the committed baseline in
// bench/baselines/BENCH_obs.json.
//
//   bench_micro_obs [--smoke] [--out PATH]
//
//   --smoke   cut iteration counts ~10-20x for CI (noisier; pair with a
//             wide tolerance band)
//   --out     write the JSON report to PATH (default: stdout only)
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "coherence/coherent_system.hpp"
#include "common/prng.hpp"
#include "harness/runner.hpp"
#include "mem/dram.hpp"
#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "nuca/snuca.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"

using namespace tdn;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Best-of-3 wrapper for the sub-second micro kernels: the minimum is the
/// least noisy location statistic for "how fast can this go".
template <typename F>
double best_of_3(F&& f) {
  double best = f();
  for (int i = 0; i < 2; ++i) best = std::min(best, f());
  return best;
}

/// Minimal 2x2 S-NUCA hierarchy, optionally with a Recorder attached.
struct Rig {
  sim::EventQueue eq;
  noc::Mesh mesh{2, 2};
  noc::Network net{mesh, eq, {}};
  mem::MemControllers mcs{1, {0}, {}};
  nuca::SNucaPolicy policy{4};
  std::unique_ptr<coherence::CoherentSystem> sys;

  explicit Rig(obs::Recorder* rec) {
    sys = std::make_unique<coherence::CoherentSystem>(
        eq, net, mesh, mcs, policy, coherence::HierarchyConfig{}, 4, rec);
  }
};

/// Pure L1 hits — the hottest instrumented path in the simulator. With a
/// disabled (or null) recorder this must cost the same either way.
double l1_hit_ns(obs::Recorder* rec, std::uint64_t iters) {
  Rig rig(rec);
  // Warm one line into core 0's L1 so the measured loop is pure hits.
  rig.sys->access(0, 0x1000, 0x1000, AccessKind::Read, [] {});
  rig.eq.run();
  std::uint64_t done = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    rig.sys->access(0, 0x1000, 0x1000, AccessKind::Read, [&] { ++done; });
    rig.eq.run();
  }
  const double ns = ms_since(t0) * 1e6;
  if (done != iters) std::fprintf(stderr, "impossible\n");  // defeat DCE
  return ns / static_cast<double>(iters);
}

/// Streaming LLC misses — every access is a fresh line, so each one walks
/// the full miss path (MSHR, NoC, bank, DRAM) and, when attribution is on,
/// stamps all six in-flight timestamps.
double llc_miss_ns(obs::Recorder* rec, std::uint64_t iters) {
  Rig rig(rec);
  std::uint64_t done = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const Addr a = 0x100000 + i * 64;
    rig.sys->access(0, a, a, AccessKind::Read, [&] { ++done; });
    rig.eq.run();
  }
  const double ns = ms_since(t0) * 1e6;
  if (done != iters) std::fprintf(stderr, "impossible\n");
  return ns / static_cast<double>(iters);
}

double hist_add_ns(std::uint64_t iters) {
  obs::LatencyHistogram h;
  SplitMix64 rng(7);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    h.add(rng.next_below(1u << 20));
  }
  const double ns = ms_since(t0) * 1e6;
  if (h.count() != iters) std::fprintf(stderr, "impossible\n");
  return ns / static_cast<double>(iters);
}

double hist_percentile_ns(std::uint64_t iters) {
  obs::LatencyHistogram h;
  SplitMix64 rng(8);
  for (int i = 0; i < 100'000; ++i) h.add(rng.next_below(1u << 20));
  Cycle sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    sink += h.percentile(0.99);
  }
  const double ns = ms_since(t0) * 1e6;
  if (sink == 0) std::fprintf(stderr, "impossible\n");
  return ns / static_cast<double>(iters);
}

double span_ns(bool enabled, std::uint64_t iters) {
  obs::RecorderConfig cfg;
  cfg.trace = enabled;
  obs::Recorder rec(cfg);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    rec.span(0, "task", "t", 0, 100);
  }
  const double ns = ms_since(t0) * 1e6;
  if (enabled && rec.trace_events() != iters)
    std::fprintf(stderr, "impossible\n");
  return ns / static_cast<double>(iters);
}

double peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

void write_json(const std::map<std::string, double>& metrics, bool smoke,
                const std::string& out_path) {
  std::string json = "{\n  \"schema\": \"tdn-bench-obs-v1\",\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  json += "  \"metrics\": {\n";
  std::size_t i = 0;
  for (const auto& [k, v] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    json += "    \"" + k + "\": " + buf;
    json += (++i < metrics.size()) ? ",\n" : "\n";
  }
  json += "  }\n}\n";
  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    f << json;
    std::fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const std::uint64_t hit_iters = smoke ? 20'000 : 200'000;
  const std::uint64_t miss_iters = smoke ? 10'000 : 100'000;
  const std::uint64_t hist_iters = smoke ? 2'000'000 : 40'000'000;
  const std::uint64_t pct_iters = smoke ? 100'000 : 2'000'000;
  const std::uint64_t span_iters = smoke ? 5'000'000 : 100'000'000;

  std::map<std::string, double> m;

  // Histogram primitives.
  m["hist_add.ns_per_op"] = best_of_3([&] { return hist_add_ns(hist_iters); });
  m["hist_percentile.ns_per_op"] =
      best_of_3([&] { return hist_percentile_ns(pct_iters); });

  // Disabled trace sink: a span() call must compile down to a flag check.
  m["span_disabled.ns_per_op"] =
      best_of_3([&] { return span_ns(false, span_iters); });
  m["span_enabled.ns_per_op"] =
      best_of_3([&] { return span_ns(true, span_iters / 20); });

  // Coherence hot paths under three recorder states. The disabled ratios
  // are the "below noise" guarantee the issue asks for; the attribution
  // ratio is the price of the six-stamp in-flight tracking on real misses.
  obs::Recorder disabled;  // all sinks off
  obs::RecorderConfig attr_cfg;
  attr_cfg.attribution = true;

  const double hit_null =
      best_of_3([&] { return l1_hit_ns(nullptr, hit_iters); });
  const double hit_off =
      best_of_3([&] { return l1_hit_ns(&disabled, hit_iters); });
  m["l1_hit_null.ns_per_op"] = hit_null;
  m["l1_hit_disabled.ns_per_op"] = hit_off;
  m["l1_hit_disabled.overhead_ratio"] = hit_off / hit_null;

  const double miss_null =
      best_of_3([&] { return llc_miss_ns(nullptr, miss_iters); });
  const double miss_off =
      best_of_3([&] { return llc_miss_ns(&disabled, miss_iters); });
  const double miss_attr = best_of_3([&] {
    obs::Recorder rec(attr_cfg);
    return llc_miss_ns(&rec, miss_iters);
  });
  m["llc_miss_null.ns_per_op"] = miss_null;
  m["llc_miss_disabled.ns_per_op"] = miss_off;
  m["llc_miss_disabled.overhead_ratio"] = miss_off / miss_null;
  m["llc_miss_attribution.ns_per_op"] = miss_attr;
  m["llc_miss_attribution.overhead_ratio"] = miss_attr / miss_null;

  // End-to-end: one full workload with and without the --latency-report
  // pipeline (attribution + critical path + report serialization).
  {
    harness::RunConfig cfg;
    cfg.workload = "gauss";
    cfg.policy = system::PolicyKind::TdNuca;
    cfg.params.scale = smoke ? 0.1 : 0.25;
    const auto t0 = Clock::now();
    (void)harness::run_experiment(cfg, /*use_cache=*/false);
    const double plain_ms = ms_since(t0);

    cfg.obs.latency_report_path = "/tmp/bench_micro_obs_report.json";
    const auto t1 = Clock::now();
    (void)harness::run_experiment(cfg, /*use_cache=*/false);
    const double attr_ms = ms_since(t1);

    m["sim_gauss_tdnuca.wall_ms"] = plain_ms;
    m["sim_gauss_tdnuca_report.wall_ms"] = attr_ms;
    m["sim_gauss_tdnuca_report.overhead_ratio"] = attr_ms / plain_ms;
  }

  m["peak_rss_kb"] = peak_rss_kb();

  std::fprintf(stderr,
               "[bench] hist add %.1f ns, l1 hit %.0f/%.0f ns (null/off), "
               "miss %.0f/%.0f/%.0f ns (null/off/attr), report overhead "
               "%.2fx\n",
               m["hist_add.ns_per_op"], m["l1_hit_null.ns_per_op"],
               m["l1_hit_disabled.ns_per_op"], m["llc_miss_null.ns_per_op"],
               m["llc_miss_disabled.ns_per_op"],
               m["llc_miss_attribution.ns_per_op"],
               m["sim_gauss_tdnuca_report.overhead_ratio"]);
  write_json(m, smoke, out_path);
  return 0;
}
