#include "system/tiled_system.hpp"

#include <algorithm>
#include <string>

#include "common/require.hpp"
#include "obs/recorder.hpp"

namespace tdn::system {

TiledSystem::TiledSystem(SystemConfig cfg, obs::Recorder* rec)
    : TiledSystem(std::move(cfg), multi::MixSpec{{""}}, {}, rec) {
  built_ = true;  // the caller builds through vspace() and runtime()
}

TiledSystem::TiledSystem(SystemConfig cfg, multi::MixSpec mix,
                         multi::MultiOptions opts, obs::Recorder* rec)
    : opts_(opts), machine_(cfg, rec) {
  const unsigned num_apps = static_cast<unsigned>(mix.apps.size());
  TDN_REQUIRE(num_apps >= 1, "a mix needs at least one app");
  TDN_REQUIRE(num_apps <= cfg.num_cores(), "more apps than cores");
  TDN_REQUIRE(num_apps == 1 || cfg.policy != PolicyKind::TdNucaDryRun,
              "TdNucaDryRun is a single-program overhead study; "
              "not supported in multiprogram mode");

  // Row-granular split (multi::row_partitions): app a owns mesh rows
  // [a*rpa, (a+1)*rpa). One app owns them all and maps over the whole LLC,
  // as does every app in Shared mode.
  const std::vector<CoreMask> part =
      multi::row_partitions(cfg.mesh_w, cfg.mesh_h, num_apps);
  const bool confined =
      num_apps > 1 && opts_.mode == multi::PartitionMode::Partitioned;
  apps_.reserve(num_apps);
  std::vector<nuca::MappingPolicy*> app_policies;
  for (unsigned a = 0; a < num_apps; ++a) {
    App& app = *apps_.emplace_back(
        std::make_unique<App>(a * multi::kAppStride + mem::kHeapBase));
    app.workload_name = mix.apps[a];
    app.cores = part[a];
    app.policies = &machine_.add_policies();
    if (confined) app.policies->active->set_partition(part[a], part[a]);
    app_policies.push_back(app.policies->active);
  }

  // One program's TD-NUCA policy is the fault injector's RRT target. In a
  // mix each app owns its own RRT set, so there is none, and the policies'
  // in-map health guards already mask dead banks out of stale entries.
  machine_.build(colocated() ? nullptr : apps_[0]->policies->tdnuca.get());
  if (colocated()) machine_.caches().set_app_view(part, app_policies);

  // Stream a: co-scheduled runtimes must not mirror each other's dispatch
  // noise (and a shared stream would make results depend on app completion
  // interleaving).
  for (unsigned a = 0; a < num_apps; ++a) {
    App& app = *apps_[a];
    app.program = machine_.make_program(*app.policies, app.cores, a);
  }

  if (rec != nullptr) register_observability();
}

TiledSystem::~TiledSystem() = default;

void TiledSystem::build(const workloads::WorkloadParams& params) {
  TDN_REQUIRE(!built_,
              "build() already called, or the program is built through "
              "vspace() and runtime()");
  built_ = true;
  for (unsigned a = 0; a < num_apps(); ++a) {
    App& app = *apps_[a];
    workloads::WorkloadParams p = params;
    // Decorrelate identical workloads: "gauss+gauss" must model two
    // independent instances, not one program mirrored.
    p.seed = params.seed + 1000003ull * a;
    app.workload = workloads::make_workload(app.workload_name, p);
    app.workload->build(
        workloads::BuildContext{app.vspace, *app.program.rt});
    TDN_REQUIRE(app.vspace.footprint() < multi::kAppStride,
                "app footprint overflows its address-space slot");
  }
}

const workloads::WorkloadStats& TiledSystem::app_workload_stats(
    unsigned a) const {
  const App& app = *apps_.at(a);
  TDN_REQUIRE(app.workload != nullptr, "app has no workload built by build()");
  return app.workload->stats();
}

void TiledSystem::register_observability() {
  obs::Recorder& rec = *machine_.recorder();
  // Core c's RRT belongs to the policy of the app that runs on core c; the
  // apps' row partitions list the cores in id order.
  for (const auto& app : apps_) {
    const nuca::TdNucaPolicy* td = app->policies->tdnuca.get();
    if (td == nullptr) continue;
    app->cores.for_each([&rec, td](CoreId c) {
      rec.add_series("rrt.core" + std::to_string(c) + ".entries", [td, c] {
        return static_cast<double>(td->rrt(c).size());
      });
    });
  }
  rec.add_series("runtime.ready_tasks", [this] {
    std::size_t ready = 0;
    for (const auto& app : apps_) ready += app->program.scheduler->size();
    return static_cast<double>(ready);
  });
  rec.add_series("tasks.completed", [this] {
    return static_cast<double>(tasks_completed());
  });
  if (!colocated()) return;

  const coherence::CoherentSystem* caches = &machine_.caches();
  const unsigned n = config().num_cores();
  const unsigned w = config().mesh_w;
  const unsigned h = config().mesh_h;
  rec.add_heatmap("cross_app_conflicts", w, h,
                  obs::per_tile(n, [caches](unsigned b) {
                    return caches->bank_cross_app_conflicts(b);
                  }));
  const double cap = static_cast<double>(caches->bank_capacity_lines()) *
                     static_cast<double>(n);
  for (unsigned a = 0; a < num_apps(); ++a) {
    const std::string p = "app" + std::to_string(a);
    // Where each app's footprint actually lives — the colocation heatmap.
    rec.add_heatmap(p + "_resident_lines", w, h,
                    obs::per_tile(n, [caches, a](unsigned b) {
                      return caches->app_resident_lines(a, b);
                    }));
    rec.add_series(p + ".llc.occupancy", [caches, a, cap] {
      return static_cast<double>(caches->app_resident_lines(a)) / cap;
    });
    rec.add_series(p + ".llc.hit_ratio", obs::epoch_hit_ratio([caches, a] {
                     const auto& c = caches->app_counters(a);
                     return std::pair{c.llc_hits, c.llc_misses};
                   }));
    rec.add_series(p + ".tasks.completed", [this, a] {
      return static_cast<double>(apps_[a]->program.rt->tasks_completed());
    });
    rec.add_series(p + ".runtime.ready_tasks", [this, a] {
      return static_cast<double>(apps_[a]->program.scheduler->size());
    });
  }
  rec.add_series("multi.cross_app_conflicts", [caches] {
    return static_cast<double>(caches->cross_app_conflicts());
  });
}

Cycle TiledSystem::run(Cycle cycle_limit) {
  TDN_REQUIRE(built_, "call build() before run()");
  completed_ = false;
  machine_.arm();
  if (fault::Watchdog* wd =
          machine_.arm_watchdog([this] { return tasks_completed(); })) {
    wd->add_diagnostic("apps", [this] {
      std::string s;
      for (unsigned a = 0; a < num_apps(); ++a)
        s += " app" + std::to_string(a) + ":" + apps_[a]->program.describe();
      return s;
    });
  }
  running_ = num_apps();
  for (const auto& app : apps_) {
    app->program.rt->run([this] {
      if (--running_ == 0) completed_ = true;
    });
  }
  machine_.events().run_until(cycle_limit);
  TDN_REQUIRE(completed_,
              "simulation drained without completing every program");
  for (const auto& app : apps_)
    machine_.check_invariants(app->policies->tdnuca.get(),
                              app->program.hooks_td);
  return makespan();
}

std::size_t TiledSystem::tasks_completed() const {
  std::size_t done = 0;
  for (const auto& app : apps_) done += app->program.rt->tasks_completed();
  return done;
}

Cycle TiledSystem::makespan() const {
  Cycle last = 0;
  for (const auto& app : apps_)
    last = std::max(last, app->program.rt->makespan());
  return last;
}

stats::Registry TiledSystem::collect_stats() const {
  stats::Registry r;
  r.set("sim.cycles", static_cast<double>(makespan()));
  r.set("tasks.completed", static_cast<double>(tasks_completed()));
  machine_.add_stats(r);
  if (!colocated()) return r;

  const unsigned n = config().num_cores();
  const coherence::CoherentSystem& caches = machine_.caches();
  for (unsigned b = 0; b < n; ++b)
    r.set("llc.bank" + std::to_string(b) + ".cross_app_conflicts",
          static_cast<double>(caches.bank_cross_app_conflicts(b)));

  // --- colocation aggregates -------------------------------------------
  r.set("multi.num_apps", static_cast<double>(num_apps()));
  r.set("multi.partitioned",
        opts_.mode == multi::PartitionMode::Partitioned ? 1.0 : 0.0);
  r.set("multi.cross_app_conflicts",
        static_cast<double>(caches.cross_app_conflicts()));

  // --- per-app namespaces -----------------------------------------------
  const double llc_cap = static_cast<double>(caches.bank_capacity_lines()) *
                         static_cast<double>(n);
  for (unsigned a = 0; a < num_apps(); ++a) {
    const App& app = *apps_[a];
    const std::string p = "app" + std::to_string(a);
    r.set(p + ".sim.cycles", static_cast<double>(app.program.rt->makespan()));
    r.set(p + ".tasks.completed",
          static_cast<double>(app.program.rt->tasks_completed()));
    r.set(p + ".cores", static_cast<double>(app.cores.count()));
    r.set(p + ".banks", static_cast<double>(app_banks(a).count()));
    const std::uint64_t resident = caches.app_resident_lines(a);
    r.set(p + ".llc.resident_lines", static_cast<double>(resident));
    r.set(p + ".llc.occupancy", static_cast<double>(resident) / llc_cap);
    if (const nuca::TdNucaPolicy* td = app.policies->tdnuca.get()) {
      r.set(p + ".rrt.lookups",
            static_cast<double>(td->rrt_hits() + td->rrt_misses()));
    }
    const auto& ws = app_workload_stats(a);
    r.set(p + ".workload.input_bytes", static_cast<double>(ws.input_bytes));
    r.set(p + ".workload.num_tasks", static_cast<double>(ws.num_tasks));
    r.set(p + ".workload.num_phases", static_cast<double>(ws.num_phases));
  }
  return r;
}

}  // namespace tdn::system
