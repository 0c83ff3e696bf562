// tdn_perfbench — the simulator side of the repository benchmark
// (perfbench/README.md). One invocation runs one workload and prints one
// JSON document of raw measurements on stdout; perfbench/run.py turns it
// into the benchmark's metrics and correctness verdict.
//
//   tdn_perfbench --workload paper_sweep|serve_mmpp|colo_vm4k --seed N
//                 --seconds S [--trace DIR] [--smoke]
//
// Phases, in order:
//   1. warm-up: one small untimed simulation (first-touch page faults,
//      allocator growth and lazy statics stay out of every timing);
//   2. timed runs through harness::SweepRunner::run with the results cache
//      off, repeated until S seconds have been measured (one run with
//      --trace: the untraced reference for the overhead figure);
//   3. set-up passes: construct every unit's machine and build its inputs,
//      timed per pass; a batch of them follows each timed run (plain mode
//      only);
//   4. with --trace DIR only: the traced run. Every unit is driven through
//      its front-end's constructor, build, run and collect_stats, each call
//      wrapped in a span; an obs::Recorder with latency attribution writes a
//      tdn-obs-report-v1 file per unit into DIR, the spans go to
//      DIR/spans.json, and the layer microkernels run last.
//
// The simulator is only reached through public entry points; sim.threads
// stays 1 and at most two worker threads ever run.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_array.hpp"
#include "common/jsonfmt.hpp"
#include "common/prng.hpp"
#include "harness/runner.hpp"
#include "harness/sweep_runner.hpp"
#include "multi/multi_system.hpp"
#include "noc/mesh.hpp"
#include "obs/recorder.hpp"
#include "runtime/region_map.hpp"
#include "serve/serve_system.hpp"
#include "sim/event_queue.hpp"
#include "system/tiled_system.hpp"
#include "tdnuca/rrt.hpp"
#include "vm/tlb_hierarchy.hpp"
#include "workloads/workload.hpp"

using namespace tdn;

namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Where microkernels publish their results, so the compiler cannot
/// discard the loops that compute them.
volatile std::uint64_t g_sink = 0;

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// --- workloads --------------------------------------------------------------

/// Every simulation unit of @p workload, in groups: one timed run runs one
/// group, and the groups take turns. Sizes are documented in
/// perfbench/README.md; --smoke shrinks each unit to a fraction of a second.
std::vector<std::vector<harness::RunConfig>> make_units(
    const std::string& workload, std::uint64_t seed, bool smoke) {
  std::vector<harness::RunConfig> units;
  std::size_t per_group = 1;
  if (workload == "paper_sweep") {
    // Fig. 8 at 1/8 footprint, with the LLC banks and L1s cut 8x too so
    // every input still exceeds the caches by the paper's ratio. Four
    // groups of two apps under the three policies keep each timed run to one
    // or two seconds (perfbench/README.md); each heavy app is paired with a
    // light one, lu (about 40% of the events) with md5.
    per_group = 6;
    for (const char* wl : {"lu", "md5", "gauss", "kmeans", "redblack", "knn",
                           "histo", "jacobi"}) {
      for (const auto p : {system::PolicyKind::SNuca, system::PolicyKind::RNuca,
                           system::PolicyKind::TdNuca}) {
        harness::RunConfig cfg;
        cfg.workload = wl;
        cfg.policy = p;
        cfg.params.scale = smoke ? 0.03125 : 0.125;
        cfg.params.seed = seed;
        cfg.sys.hierarchy.llc_bank.size_bytes = (smoke ? 8 : 32) * kKiB;
        cfg.sys.hierarchy.l1.size_bytes = (smoke ? 1 : 4) * kKiB;
        units.push_back(std::move(cfg));
      }
    }
  } else if (workload == "serve_mmpp") {
    // Eight independent arrival traces of an overloaded, bursty service, in
    // four groups of two. The serving metrics are compared across seeds, so
    // they must not hinge on how many bursts one trace happens to draw: with
    // the mean load above capacity the shed rate is set by offered load over
    // capacity, short dwells put about five bursts in each trace, and the
    // metrics pool all eight traces. Groups keep each timed run short
    // (perfbench/README.md). The trace seeds are hashed apart: the arrival
    // generator turns nearby seeds into nearly the same stream.
    per_group = 2;
    SplitMix64 seeds(seed);
    for (int k = 0; k < 8; ++k) {
      harness::RunConfig cfg;
      cfg.workload = "gauss+histo";
      cfg.policy = system::PolicyKind::TdNuca;
      cfg.params.seed = seeds.next();
      cfg.serve.arrival = "mmpp:gap=50k,burst=10k,dwell=100k";
      cfg.serve.weights = "1:3";
      cfg.serve.adaptive = true;
      cfg.serve.admission = serve::AdmissionPolicy::DropOldest;
      cfg.serve.slots = 2;
      cfg.serve.request_scale = 0.02;
      cfg.serve.horizon = smoke ? 400'000 : 1'000'000;
      units.push_back(std::move(cfg));
    }
  } else if (workload == "colo_vm4k") {
    harness::RunConfig cfg;
    cfg.workload = "randtouch+kmeans+randtouch+knn";
    cfg.policy = system::PolicyKind::TdNuca;
    cfg.params.scale = smoke ? 0.1 : 0.5;
    cfg.params.seed = seed;
    cfg.sys.vm.enabled = true;
    cfg.sys.vm.thp = vm::ThpPolicy::Never;
    units.push_back(std::move(cfg));
  }
  std::vector<std::vector<harness::RunConfig>> groups;
  for (auto it = units.begin(); it != units.end(); it += per_group)
    groups.emplace_back(it, it + per_group);
  return groups;
}

std::string unit_name(const harness::RunConfig& cfg) {
  return cfg.workload + "/" + system::to_string(cfg.policy);
}

system::SystemConfig machine_config(const harness::RunConfig& cfg) {
  system::SystemConfig sys = cfg.sys;
  sys.policy = cfg.policy;
  return sys;
}

// --- spans ------------------------------------------------------------------

/// In-memory span log of the traced run. Spans nest by `parent` (index into
/// spans_, -1 for a root); everything is written out once, at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    int unit = -1;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  int begin(std::string name, int unit, int parent) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), unit, parent,
                          seconds_since(origin_), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id).end_s = seconds_since(origin_);
  }

  template <typename F>
  void span(const char* name, int unit, int parent, F&& fn) {
    const int id = begin(name, unit, parent);
    fn();
    end(id);
  }

  /// Summed duration per span name. Call after every worker has joined.
  std::map<std::string, double> totals() const {
    std::map<std::string, double> t;
    for (const Span& s : spans_) t[s.name] += s.end_s - s.start_s;
    return t;
  }

  std::string json() const {
    std::ostringstream os;
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s{\"id\":%zu,\"name\":\"%s\",\"unit\":%d,\"parent\":%d,"
                    "\"start_s\":%.9f,\"end_s\":%.9f}",
                    i ? "," : "", i, s.name.c_str(), s.unit, s.parent,
                    s.start_s, s.end_s);
      os << buf;
    }
    os << "]}\n";
    return os.str();
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_ while workers run
};

// --- front-end drivers --------------------------------------------------------

/// What one traced unit produced.
struct TracedUnit {
  Metrics metrics;
  std::uint64_t tasks_built = 0;  ///< tasks created by workload builds
};

/// Construct and build one unit without running it (a set-up pass), or, with
/// @p run, also run it and collect its metrics. Each call into the
/// simulator is a span when @p tr is non-null.
TracedUnit drive_unit(const harness::RunConfig& cfg, bool run, Tracer* tr,
                      int unit, int parent, obs::Recorder* rec) {
  TracedUnit out;
  auto step = [&](const char* name, auto&& fn) {
    if (tr != nullptr) {
      tr->span(name, unit, parent, fn);
    } else {
      fn();
    }
  };
  const system::SystemConfig sys_cfg = machine_config(cfg);
  const multi::MixSpec mix = multi::MixSpec::parse(cfg.workload);
  if (cfg.serve.enabled()) {
    std::unique_ptr<serve::ServeSystem> s;
    step("system.construct", [&] {
      s = std::make_unique<serve::ServeSystem>(sys_cfg, mix, cfg.serve, rec);
    });
    step("workloads.build", [&] { s->build(cfg.params); });
    if (!run) return out;
    step("sim.run", [&] { s->run(); });
    step("stats.collect", [&] { out.metrics = s->collect_stats().all(); });
    // Request graphs are built inside run(); count what the runtimes ran.
    out.tasks_built = static_cast<std::uint64_t>(out.metrics["tasks.completed"]);
  } else if (mix.is_multi()) {
    std::unique_ptr<multi::MultiProgramSystem> m;
    step("system.construct", [&] {
      m = std::make_unique<multi::MultiProgramSystem>(sys_cfg, mix, cfg.multi,
                                                      rec);
    });
    step("workloads.build", [&] { m->build(cfg.params); });
    for (unsigned a = 0; a < m->num_apps(); ++a)
      out.tasks_built += m->app_workload_stats(a).num_tasks;
    if (!run) return out;
    step("sim.run", [&] { m->run(); });
    step("stats.collect", [&] { out.metrics = m->collect_stats().all(); });
  } else {
    std::unique_ptr<system::TiledSystem> sys;
    std::unique_ptr<workloads::Workload> wl;
    step("system.construct", [&] {
      sys = std::make_unique<system::TiledSystem>(sys_cfg, rec);
    });
    step("workloads.build", [&] {
      wl = workloads::make_workload(cfg.workload, cfg.params);
      wl->build(*sys);
    });
    out.tasks_built = wl->stats().num_tasks;
    if (!run) return out;
    step("sim.run", [&] { sys->run(); });
    step("stats.collect", [&] { out.metrics = sys->collect_stats().all(); });
  }
  return out;
}

double setup_pass(const std::vector<harness::RunConfig>& units) {
  const auto t0 = Clock::now();
  for (const auto& cfg : units) drive_unit(cfg, false, nullptr, -1, -1, nullptr);
  return seconds_since(t0);
}

/// One timed run of every unit through the sweep runner.
struct TimedRun {
  std::vector<harness::RunResult> results;
  double wall_s = 0.0;
  double pool_idle_s = 0.0;  ///< jobs x sweep wall - sum of run walls
  std::size_t cache_hits = 0;
};

TimedRun timed_run(const std::vector<harness::RunConfig>& units,
                   unsigned jobs) {
  harness::SweepOptions opts;
  opts.jobs = jobs;
  opts.use_cache = false;
  opts.progress = false;
  harness::SweepRunner runner(opts);
  TimedRun tr;
  const auto t0 = Clock::now();
  tr.results = runner.run(units);
  tr.wall_s = seconds_since(t0);
  double busy_s = 0.0;
  for (const auto& r : tr.results) {
    busy_s += r.wall_ms / 1e3;
    if (r.from_cache) ++tr.cache_hits;
  }
  tr.cache_hits += runner.stats().cache_hits;
  tr.pool_idle_s = runner.stats().jobs * runner.stats().wall_ms / 1e3 - busy_s;
  return tr;
}

/// Run fn(i) for every i in [0, n) on @p jobs threads (inline when 1),
/// taking indices in order like SweepRunner. The first exception thrown is
/// rethrown after every thread has joined.
template <typename F>
void parallel_for(std::size_t n, unsigned jobs, F&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (error == nullptr) error = std::current_exception();
      }
    }
  };
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (error != nullptr) std::rethrow_exception(error);
}

// --- layer microkernels --------------------------------------------------------

/// Median of five timings of @p f (ns per operation).
template <typename F>
double median_of_5(F&& f) {
  std::vector<double> xs;
  for (int i = 0; i < 5; ++i) xs.push_back(f());
  return median(xs);
}

template <typename F>
double ns_per_op(std::uint64_t ops, F&& body) {
  const auto t0 = Clock::now();
  body();
  return seconds_since(t0) * 1e9 / static_cast<double>(ops);
}

double dispatch_ns(std::uint64_t waves) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  return ns_per_op(waves * 1024, [&] {
    for (std::uint64_t w = 0; w < waves; ++w) {
      for (std::uint64_t i = 0; i < 1024; ++i) {
        q.schedule_at(q.now() + (i * 7) % 997,
                      [&sink, i] { sink += i; });
      }
      q.run();
    }
    g_sink = sink;
  });
}

double xy_route_ns(std::uint64_t iters) {
  noc::Mesh mesh(4, 4);
  SplitMix64 rng(4);
  std::uint64_t hops = 0;
  const double ns = ns_per_op(iters, [&] {
    for (std::uint64_t i = 0; i < iters; ++i)
      hops += mesh.xy_route(static_cast<CoreId>(rng.next_below(16)),
                            static_cast<CoreId>(rng.next_below(16)))
                  .size();
  });
  g_sink = hops;
  return ns;
}

double cache_find_ns(std::uint64_t iters) {
  struct Meta {
    bool dirty = false;
  };
  cache::CacheArray<Meta> arr({32 * kKiB, 16, 64});
  SplitMix64 rng(1);
  std::optional<cache::CacheArray<Meta>::Eviction> ev;
  for (int i = 0; i < 4096; ++i) arr.allocate(rng.next_below(1 << 14) * 64, ev);
  SplitMix64 probe(2);
  std::uint64_t hits = 0;
  const double ns = ns_per_op(iters, [&] {
    for (std::uint64_t i = 0; i < iters; ++i)
      hits += arr.find(probe.next_below(1 << 14) * 64) != nullptr;
  });
  g_sink = hits;
  return ns;
}

double rrt_lookup_ns(std::uint64_t iters) {
  tdnuca::Rrt rrt(64, 1);
  for (Addr i = 0; i < 64; ++i)
    rrt.register_range({i * 0x10000, i * 0x10000 + 0x8000},
                       BankMask::single(static_cast<CoreId>(i % 16)));
  SplitMix64 rng(3);
  std::uint64_t found = 0;
  const double ns = ns_per_op(iters, [&] {
    for (std::uint64_t i = 0; i < iters; ++i)
      found += rrt.lookup(rng.next_below(64) * 0x10000 + 0x4000).has_value();
  });
  g_sink = found;
  return ns;
}

double region_map_ns(std::uint64_t iters) {
  std::uint64_t deps = 0;
  const double ns = ns_per_op(iters * 256, [&] {
    for (std::uint64_t it = 0; it < iters; ++it) {
      runtime::RegionMap rm;
      for (TaskId t = 0; t < 256; ++t) {
        const Addr base = (t % 64) * 0x8000;
        deps += rm.access({base, base + 0x8000}, t, t % 3 == 0).size();
      }
    }
  });
  g_sink = deps;
  return ns;
}

double tlb_lookup_ns(std::uint64_t iters) {
  vm::VmConfig cfg;
  cfg.enabled = true;
  vm::TlbHierarchy tlb(cfg);
  // A working set of 2048 4K pages: twice the L2 reach, so lookups mix L1
  // hits, L2 hits and misses the way randtouch does.
  for (Addr p = 0; p < 2048; ++p) tlb.fill(p * 4096, 4096);
  SplitMix64 rng(5);
  std::uint64_t hits = 0;
  const double ns = ns_per_op(iters, [&] {
    for (std::uint64_t i = 0; i < iters; ++i) {
      const Addr va = rng.next_below(2048) * 4096;
      const auto r = tlb.lookup(va);
      if (r.hit) {
        ++hits;
      } else {
        tlb.fill(va, 4096);
      }
    }
  });
  g_sink = hits;
  return ns;
}

Metrics run_microkernels(bool smoke) {
  const std::uint64_t k = smoke ? 20'000 : 1'000'000;
  Metrics m;
  m["sim.dispatch_ns"] = median_of_5([&] { return dispatch_ns(k / 1024 + 1); });
  m["noc.xy_route_ns"] = median_of_5([&] { return xy_route_ns(k); });
  m["cache.find_ns"] = median_of_5([&] { return cache_find_ns(k); });
  m["tdnuca.rrt_lookup_ns"] = median_of_5([&] { return rrt_lookup_ns(k); });
  m["runtime.region_map_ns"] =
      median_of_5([&] { return region_map_ns(k / 256 + 1); });
  m["vm.tlb_lookup_ns"] = median_of_5([&] { return tlb_lookup_ns(k); });
  return m;
}

// --- output ------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    s += (first ? "\"" : ",\"") + json_escape(k) + "\":" + num(v);
    first = false;
  }
  return s + "}";
}

std::string list_json(const std::vector<double>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) s += (i ? "," : "") + num(xs[i]);
  return s + "]";
}

/// Keys of @p traced whose value in @p timed differs or is missing.
std::size_t metric_mismatches(const Metrics& timed, const Metrics& traced) {
  std::size_t n = 0;
  for (const auto& [k, v] : traced) {
    const auto it = timed.find(k);
    if (it == timed.end() || it->second != v) ++n;
  }
  return n;
}

// --- the traced run ------------------------------------------------------------

/// Drive every unit through its front-end with spans and a latency-
/// attributing recorder, on as many threads as the timed run used, and
/// return the "trace" member of the output document. @p reference holds the
/// timed run's results: every traced unit must reproduce its metrics.
std::string traced_run(const std::vector<harness::RunConfig>& units,
                       unsigned jobs,
                       const std::vector<harness::RunResult>& reference,
                       const std::string& trace_dir, bool smoke) {
  Tracer tr;
  std::vector<std::uint64_t> tasks_built(units.size(), 0);
  std::vector<char> mismatched(units.size(), 0);
  std::vector<std::string> reports(units.size());
  parallel_for(units.size(), jobs, [&](std::size_t u) {
    const harness::RunConfig& cfg = units[u];
    obs::RecorderConfig rc;
    rc.attribution = true;
    obs::Recorder rec(rc);
    const int unit = static_cast<int>(u);
    const int id = tr.begin("unit", unit, -1);
    const TracedUnit t = drive_unit(cfg, true, &tr, unit, id, &rec);
    tr.end(id);
    tasks_built[u] = t.tasks_built;
    mismatched[u] = t.metrics.empty() ||
                    metric_mismatches(reference[u].metrics, t.metrics) != 0;
    // This unit's tdn-obs-report-v1 document (the attribution sections).
    std::ostringstream rep;
    rep << "{\"schema\":\"tdn-obs-report-v1\",\"workload\":\""
        << json_escape(cfg.workload) << "\",\"policy\":\""
        << system::to_string(cfg.policy) << "\","
        << rec.attribution()->report_json() << ",\"critical_path\":null}\n";
    const std::string path = trace_dir + "/latency_" + std::to_string(u) + ".json";
    if (!obs::write_file(path, rep.str()))
      throw std::runtime_error("cannot write " + path);
    reports[u] = path;
  });
  if (!obs::write_file(trace_dir + "/spans.json", tr.json()))
    throw std::runtime_error("cannot write " + trace_dir + "/spans.json");

  double untraced_unit_s = 0.0;
  for (const auto& r : reference) untraced_unit_s += r.wall_ms / 1e3;
  std::uint64_t tasks = 0;
  std::size_t mismatched_units = 0;
  for (std::size_t u = 0; u < units.size(); ++u) {
    tasks += tasks_built[u];
    mismatched_units += mismatched[u] != 0;
  }
  std::ostringstream os;
  os << ",\"trace\":{\"untraced_unit_s\":" << num(untraced_unit_s)
     << ",\"mismatched_units\":" << mismatched_units
     << ",\"tasks_built\":" << tasks
     << ",\"spans\":" << metrics_json(tr.totals())
     << ",\"micro\":" << metrics_json(run_microkernels(smoke))
     << ",\"latency_reports\":[";
  for (std::size_t u = 0; u < reports.size(); ++u)
    os << (u ? "," : "") << '"' << json_escape(reports[u]) << '"';
  os << "]}";
  return os.str();
}

int usage() {
  std::fputs(
      "usage: tdn_perfbench --workload paper_sweep|serve_mmpp|colo_vm4k "
      "--seed N --seconds S [--trace DIR] [--smoke]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // required
  std::string trace_dir;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (i + 1 < argc && a == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && a == "--seed") {
      seed = std::stoull(argv[++i]);
    } else if (i + 1 < argc && a == "--seconds") {
      seconds = std::stod(argv[++i]);
    } else if (i + 1 < argc && a == "--trace") {
      trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  const std::vector<std::vector<harness::RunConfig>> groups =
      make_units(workload, seed, smoke);
  if (groups.empty() || !(seconds > 0.0)) return usage();
  std::vector<harness::RunConfig> units;
  for (const auto& g : groups) units.insert(units.end(), g.begin(), g.end());
  const bool traced = !trace_dir.empty();
  const unsigned jobs = groups.front().size() > 1 ? 2 : 1;

  try {
    // 1. Warm-up: one small simulation, untimed.
    {
      harness::RunConfig warm;
      warm.workload = "jacobi";
      warm.params.scale = 0.02;
      harness::run_experiment(warm, false);
    }

    // 2+3. Timed runs, one group at a time in turn, until the next one would
    // end past the budget, each followed by a batch of set-up passes (every
    // unit's machine constructed and its inputs built), so the set-up
    // passes sample the whole run's host time, not one stretch of it.
    // Simulated metrics must repeat exactly across a group's timed runs.
    const auto t_start = Clock::now();
    std::vector<double> setup_s;
    std::vector<std::vector<TimedRun>> runs(groups.size());
    std::size_t rep_mismatches = 0;
    double step_s = 0.0;
    for (std::size_t rep = 0;
         rep < groups.size() ||
         (!traced && seconds_since(t_start) + step_s <= seconds);
         ++rep) {
      const auto t_step = Clock::now();
      const std::size_t g = rep % groups.size();
      runs[g].push_back(timed_run(groups[g], jobs));
      for (std::size_t u = 0; u < groups[g].size(); ++u)
        if (runs[g].back().results[u].metrics != runs[g].front().results[u].metrics)
          ++rep_mismatches;
      const auto t_setup = Clock::now();
      for (int n = 0; !traced && (n < 3 || seconds_since(t_setup) < 0.2); ++n)
        setup_s.push_back(setup_pass(units));
      step_s = seconds_since(t_step);
    }
    // Every unit's first timed result, in the order of `units`.
    std::vector<harness::RunResult> first;
    std::vector<std::size_t> unit_reps;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (const harness::RunResult& r : runs[g].front().results) {
        first.push_back(r);
        unit_reps.push_back(runs[g].size());
      }
    }

    // 4. The traced run.
    const std::string trace_json =
        traced ? traced_run(units, jobs, first, trace_dir, smoke)
               : std::string();

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);

    // Per group, one entry per timed run.
    std::string wall_s = "[";
    std::string pool_idle_s = "[";
    std::size_t cache_hits = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<double> walls;
      std::vector<double> idles;
      for (const TimedRun& r : runs[g]) {
        walls.push_back(r.wall_s);
        idles.push_back(r.pool_idle_s);
        cache_hits += r.cache_hits;
      }
      wall_s += (g ? "," : "") + list_json(walls);
      pool_idle_s += (g ? "," : "") + list_json(idles);
    }
    wall_s += "]";
    pool_idle_s += "]";
    std::ostringstream out;
    out << "{\"workload\":\"" << json_escape(workload) << "\",\"seed\":" << seed
        << ",\"smoke\":" << (smoke ? "true" : "false") << ",\"jobs\":" << jobs
        << ",\"setup_s\":" << list_json(setup_s)
        << ",\"wall_s\":" << wall_s
        << ",\"pool_idle_s\":" << pool_idle_s
        << ",\"cache_hits\":" << cache_hits
        << ",\"rep_mismatches\":" << rep_mismatches
        << ",\"peak_rss_kb\":" << ru.ru_maxrss << ",\"units\":[";
    for (std::size_t u = 0; u < units.size(); ++u) {
      const harness::RunResult& r = first[u];
      out << (u ? "," : "") << "{\"name\":\"" << json_escape(unit_name(units[u]))
          << "\",\"workload\":\"" << json_escape(units[u].workload)
          << "\",\"policy\":\"" << r.policy
          << "\",\"max_pending\":" << units[u].serve.max_pending
          << ",\"reps\":" << unit_reps[u]
          << ",\"from_cache\":" << (r.from_cache ? "true" : "false")
          << ",\"metrics\":" << metrics_json(r.metrics) << "}";
    }
    out << "]" << trace_json << "}\n";
    std::fputs(out.str().c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tdn_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
