// Microbenchmarks of the simulation substrate itself: event-queue dispatch
// throughput, cache-array probes, RRT range lookups, XY routing and
// region-map dependence analysis, plus end-to-end simulation wall time for
// one small workload per NUCA policy. These bound the simulator's
// wall-clock cost per modeled event (DESIGN.md decision 1).
//
// Self-contained binary (no google-benchmark): emits a machine-readable
// JSON report (schema tdn-bench-substrate-v1) consumed by
// scripts/check_perf_regression.py against the committed baseline in
// bench/baselines/BENCH_substrate.json.
//
//   bench_micro_substrate [--smoke] [--out PATH]
//
//   --smoke   cut iteration counts ~20x for CI (noisier; pair with a wide
//             tolerance band)
//   --out     write the JSON report to PATH (default: stdout only)
//
// The event-dispatch benchmark uses a realistic ~72-byte coherence-shaped
// capture (ids + addresses + a std::function completion), not a tiny int
// capture: small captures fit std::function's inline window and would hide
// exactly the allocations the InlineFunction substrate removes. A reference
// std::function-over-priority_queue queue is benchmarked on the same
// payload so the speedup is measured, not asserted.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_array.hpp"
#include "common/prng.hpp"
#include "harness/runner.hpp"
#include "noc/mesh.hpp"
#include "runtime/region_map.hpp"
#include "sim/event_queue.hpp"
#include "tdnuca/rrt.hpp"

using namespace tdn;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Reference event queue: the pre-pool design (std::function closures moved
/// through a priority_queue of whole events). Kept only as the dispatch
/// benchmark's comparison point.
class StdFunctionQueue {
 public:
  void schedule_at(Cycle when, std::function<void()> fn) {
    heap_.push(Event{when, next_seq_++, std::move(fn)});
  }
  Cycle now() const noexcept { return now_; }
  void run() {
    while (!heap_.empty()) {
      Event ev = std::move(const_cast<Event&>(heap_.top()));
      heap_.pop();
      now_ = ev.when;
      ev.fn();
    }
  }

 private:
  struct Event {
    Cycle when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Coherence-shaped capture: what a miss continuation actually carries.
struct Payload {
  void* self;
  std::uint64_t vaddr, line, issued;
  std::uint32_t core;
  std::uint8_t kind;
  std::function<void(Cycle)> done;
};

template <typename Queue>
double dispatch_ns_per_event(int waves) {
  Queue q;
  std::uint64_t sink = 0;
  std::function<void(Cycle)> done = [&sink](Cycle c) { sink += c; };
  const auto t0 = Clock::now();
  std::uint64_t n = 0;
  for (int w = 0; w < waves; ++w) {
    for (int i = 0; i < 1024; ++i) {
      Payload p{&q,          0x1000ull * i, 64ull * i, q.now(),
                std::uint32_t(i), 1,        done};
      q.schedule_at(q.now() + static_cast<Cycle>(i * 7 % 997),
                    [p = std::move(p), &sink]() mutable {
                      sink += p.line;
                      p.done(p.issued);
                    });
      ++n;
    }
    q.run();
  }
  const double ns = ms_since(t0) * 1e6;
  if (sink == 0) std::fprintf(stderr, "impossible\n");  // defeat DCE
  return ns / static_cast<double>(n);
}

/// Best-of-3 wrapper for the sub-second micro kernels: the minimum is the
/// least noisy location statistic for "how fast can this go".
template <typename F>
double best_of_3(F&& f) {
  double best = f();
  for (int i = 0; i < 2; ++i) best = std::min(best, f());
  return best;
}

double cache_probe_ns(std::uint64_t iters) {
  struct M {
    bool dirty = false;
  };
  cache::CacheArray<M> arr({256 * kKiB, 16, 64});
  SplitMix64 rng(1);
  std::optional<cache::CacheArray<M>::Eviction> ev;
  for (int i = 0; i < 4096; ++i) arr.allocate(rng.next_below(1 << 20) * 64, ev);
  SplitMix64 probe(2);
  std::uint64_t hits = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    hits += arr.find(probe.next_below(1 << 20) * 64) != nullptr;
  }
  const double ns = ms_since(t0) * 1e6;
  if (hits == iters + 1) std::fprintf(stderr, "impossible\n");
  return ns / static_cast<double>(iters);
}

double rrt_lookup_ns(std::uint64_t iters) {
  tdnuca::Rrt rrt(64, 1);
  for (Addr i = 0; i < 64; ++i)
    rrt.register_range({i * 0x10000, i * 0x10000 + 0x8000},
                       BankMask::single(static_cast<CoreId>(i % 16)));
  SplitMix64 rng(3);
  std::uint64_t found = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    found += rrt.lookup(rng.next_below(64) * 0x10000 + 0x4000).has_value();
  }
  const double ns = ms_since(t0) * 1e6;
  if (found == iters + 1) std::fprintf(stderr, "impossible\n");
  return ns / static_cast<double>(iters);
}

double xy_route_ns(std::uint64_t iters) {
  noc::Mesh mesh(4, 4);
  SplitMix64 rng(4);
  std::uint64_t hops = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    hops += mesh.xy_route(static_cast<CoreId>(rng.next_below(16)),
                          static_cast<CoreId>(rng.next_below(16)))
                .size();
  }
  const double ns = ms_since(t0) * 1e6;
  if (hops == iters + 1) std::fprintf(stderr, "impossible\n");
  return ns / static_cast<double>(iters);
}

double region_map_ns(std::uint64_t iters) {
  std::uint64_t deps = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t it = 0; it < iters; ++it) {
    runtime::RegionMap rm;
    for (TaskId t = 0; t < 256; ++t) {
      const Addr base = (t % 64) * 0x8000;
      deps += rm.access({base, base + 0x8000}, t, t % 3 == 0).size();
    }
  }
  const double ns = ms_since(t0) * 1e6;
  if (deps == iters + 1) std::fprintf(stderr, "impossible\n");
  return ns / static_cast<double>(iters * 256);
}

double peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

std::string json_escape_free(const std::string& s) { return s; }  // keys are ASCII

void write_json(const std::map<std::string, double>& metrics, bool smoke,
                const std::string& out_path) {
  std::string json = "{\n  \"schema\": \"tdn-bench-substrate-v1\",\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  // Host parallelism when the report was produced: a record of the host
  // for whoever compares two reports. No metric here depends on it.
  json += "  \"threads\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"metrics\": {\n";
  std::size_t i = 0;
  for (const auto& [k, v] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    json += "    \"" + json_escape_free(k) + "\": " + buf;
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

  const int dispatch_waves = smoke ? 1000 : 20000;
  const std::uint64_t kernel_iters = smoke ? 500'000 : 10'000'000;
  const std::uint64_t map_iters = smoke ? 1'000 : 20'000;

  std::map<std::string, double> m;

  // Event dispatch: the substrate's headline number, plus the reference
  // std::function queue on the identical payload stream.
  const double pooled =
      best_of_3([&] { return dispatch_ns_per_event<sim::EventQueue>(dispatch_waves); });
  const double legacy = best_of_3(
      [&] { return dispatch_ns_per_event<StdFunctionQueue>(dispatch_waves); });
  m["event_dispatch.ns_per_event"] = pooled;
  m["event_dispatch.events_per_sec"] = 1e9 / pooled;
  m["event_dispatch.stdfunction_ref_ns_per_event"] = legacy;
  m["event_dispatch.speedup_vs_stdfunction"] = legacy / pooled;

  m["cache_probe.ns_per_op"] = best_of_3([&] { return cache_probe_ns(kernel_iters); });
  m["rrt_lookup.ns_per_op"] = best_of_3([&] { return rrt_lookup_ns(kernel_iters); });
  m["xy_route.ns_per_op"] = best_of_3([&] { return xy_route_ns(kernel_iters); });
  m["region_map.ns_per_op"] = best_of_3([&] { return region_map_ns(map_iters); });

  // End-to-end: one workload per NUCA policy at a fixed scale, fresh
  // simulation (no results cache), wall clock + modeled events/sec.
  struct Case {
    const char* key;
    const char* workload;
    system::PolicyKind policy;
  } cases[] = {
      {"gauss_snuca", "gauss", system::PolicyKind::SNuca},
      {"histo_rnuca", "histo", system::PolicyKind::RNuca},
      {"jacobi_tdnuca", "jacobi", system::PolicyKind::TdNuca},
  };
  for (const Case& c : cases) {
    harness::RunConfig cfg;
    cfg.workload = c.workload;
    cfg.policy = c.policy;
    cfg.params.scale = smoke ? 0.1 : 0.25;
    const auto t0 = Clock::now();
    const harness::RunResult r = harness::run_experiment(cfg, /*use_cache=*/false);
    const double wall = ms_since(t0);
    m[std::string("sim.") + c.key + ".wall_ms"] = wall;
    m[std::string("sim.") + c.key + ".events_per_sec"] =
        r.get("sim.events") / (wall / 1e3);
  }

  m["peak_rss_kb"] = peak_rss_kb();

  std::fprintf(stderr,
               "[bench] dispatch %.1f ns/event (%.2fx vs std::function ref), "
               "probe %.1f ns, rrt %.1f ns, route %.1f ns, region %.1f ns\n",
               m["event_dispatch.ns_per_event"],
               m["event_dispatch.speedup_vs_stdfunction"],
               m["cache_probe.ns_per_op"], m["rrt_lookup.ns_per_op"],
               m["xy_route.ns_per_op"], m["region_map.ns_per_op"]);
  write_json(m, smoke, out_path);
  return 0;
}
