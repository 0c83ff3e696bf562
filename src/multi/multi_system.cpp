#include "multi/multi_system.hpp"

#include <string>

#include "common/require.hpp"
#include "obs/recorder.hpp"

namespace tdn::multi {

MultiProgramSystem::MultiProgramSystem(system::SystemConfig cfg, MixSpec mix,
                                       MultiOptions opts, obs::Recorder* rec)
    : opts_(opts), machine_(cfg, rec) {
  const unsigned n = cfg.num_cores();
  const unsigned num_apps = static_cast<unsigned>(mix.apps.size());
  TDN_REQUIRE(num_apps >= 1, "a mix needs at least one app");
  TDN_REQUIRE(num_apps <= n, "more apps than cores");
  TDN_REQUIRE(cfg.policy != system::PolicyKind::TdNucaDryRun,
              "TdNucaDryRun is a single-program overhead study; "
              "not supported in multiprogram mode");

  // --- core / bank partitions ------------------------------------------
  // Row-granular split (multi::row_partitions): app a owns mesh rows
  // [a*rpa, (a+1)*rpa).
  const std::vector<CoreMask> part =
      row_partitions(cfg.mesh_w, cfg.mesh_h, num_apps);

  // --- per-app address spaces + NUCA policies --------------------------
  apps_.reserve(num_apps);
  std::vector<nuca::MappingPolicy*> app_policies;
  for (unsigned a = 0; a < num_apps; ++a) {
    apps_.push_back(std::make_unique<App>(a * kAppStride + mem::kHeapBase));
    App& app = *apps_.back();
    app.workload_name = mix.apps[a];
    app.cores = part[a];
    app.banks =
        opts_.mode == PartitionMode::Partitioned ? part[a] : BankMask{};
    app.policies = &machine_.add_policies();
    if (opts_.mode == PartitionMode::Partitioned)
      app.policies->active->set_partition(app.banks, part[a]);
    app_policies.push_back(app.policies->active);
  }

  // No RRT target: each app owns its own RRT set, and the policies' in-map
  // health guards already mask dead banks out of stale entries.
  router_ = std::make_unique<AppRouter>(app_policies);
  machine_.build(*router_, nullptr);

  // --- per-app LLC accounting -------------------------------------------
  machine_.caches().set_app_view(part);

  // --- per-app programs -------------------------------------------------
  // Stream a: co-scheduled runtimes must not mirror each other's dispatch
  // noise (and a shared stream would make results depend on app completion
  // interleaving).
  for (unsigned a = 0; a < num_apps; ++a) {
    App& app = *apps_[a];
    app.program =
        machine_.make_program(app.policies->tdnuca.get(), app.cores, a);
  }

  if (rec != nullptr) register_observability();
}

MultiProgramSystem::~MultiProgramSystem() = default;

void MultiProgramSystem::build(const workloads::WorkloadParams& params) {
  TDN_REQUIRE(!built_, "build() already called");
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
    TDN_REQUIRE(app.vspace.footprint() < kAppStride,
                "app footprint overflows its address-space slot");
  }
}

Cycle MultiProgramSystem::run(Cycle cycle_limit) {
  TDN_REQUIRE(built_, "call build() before run()");
  completed_ = false;
  machine_.arm();
  if (fault::Watchdog* wd = machine_.arm_watchdog([this] {
        std::uint64_t tasks = 0;
        for (const auto& app : apps_)
          tasks += app->program.rt->tasks_completed();
        return tasks;
      })) {
    wd->add_diagnostic("apps", [this] {
      std::string s;
      for (unsigned a = 0; a < num_apps(); ++a)
        s += " app" + std::to_string(a) + ":" + apps_[a]->program.describe();
      return s;
    });
  }
  unsigned remaining = num_apps();
  for (unsigned a = 0; a < num_apps(); ++a) {
    apps_[a]->program.rt->run([this, &remaining] {
      if (--remaining == 0) completed_ = true;
    });
  }
  machine_.events().run_until(cycle_limit);
  TDN_REQUIRE(completed_, "mix drained without completing every app");
  for (const auto& app : apps_)
    machine_.check_invariants(app->policies->tdnuca.get(),
                              app->program.hooks_td);
  Cycle makespan = 0;
  for (const auto& app : apps_)
    makespan = std::max(makespan, app->program.rt->makespan());
  return makespan;
}

void MultiProgramSystem::register_observability() {
  obs::Recorder& rec = *machine_.recorder();
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

stats::Registry MultiProgramSystem::collect_stats() const {
  stats::Registry r;
  const unsigned n = config().num_cores();
  const coherence::CoherentSystem& caches = machine_.caches();

  Cycle makespan = 0;
  std::size_t tasks = 0;
  for (const auto& app : apps_) {
    makespan = std::max(makespan, app->program.rt->makespan());
    tasks += app->program.rt->tasks_completed();
  }
  r.set("sim.cycles", static_cast<double>(makespan));
  r.set("tasks.completed", static_cast<double>(tasks));
  machine_.add_stats(r);
  machine_.add_bank_stats(r);
  for (unsigned b = 0; b < n; ++b)
    r.set("llc.bank" + std::to_string(b) + ".cross_app_conflicts",
          static_cast<double>(caches.bank_cross_app_conflicts(b)));

  // --- colocation aggregates -------------------------------------------
  r.set("multi.num_apps", static_cast<double>(num_apps()));
  r.set("multi.partitioned",
        opts_.mode == PartitionMode::Partitioned ? 1.0 : 0.0);
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
    r.set(p + ".banks", static_cast<double>(
                            app.banks.empty() ? n : app.banks.count()));
    const auto& ac = caches.app_counters(a);
    r.set(p + ".llc.requests", static_cast<double>(ac.llc_requests));
    r.set(p + ".llc.hits", static_cast<double>(ac.llc_hits));
    r.set(p + ".llc.misses", static_cast<double>(ac.llc_misses));
    r.set(p + ".llc.writebacks", static_cast<double>(ac.llc_writebacks));
    r.set(p + ".llc.bypass_reads", static_cast<double>(ac.bypass_reads));
    r.set(p + ".llc.hit_ratio",
          (ac.llc_hits + ac.llc_misses) > 0
              ? static_cast<double>(ac.llc_hits) /
                    static_cast<double>(ac.llc_hits + ac.llc_misses)
              : 0.0);
    const std::uint64_t resident = caches.app_resident_lines(a);
    r.set(p + ".llc.resident_lines", static_cast<double>(resident));
    r.set(p + ".llc.occupancy", static_cast<double>(resident) / llc_cap);
    if (const nuca::TdNucaPolicy* td = app.policies->tdnuca.get()) {
      r.set(p + ".rrt.lookups",
            static_cast<double>(td->rrt_hits() + td->rrt_misses()));
    }
    const auto& ws = app.workload->stats();
    r.set(p + ".workload.input_bytes", static_cast<double>(ws.input_bytes));
    r.set(p + ".workload.num_tasks", static_cast<double>(ws.num_tasks));
    r.set(p + ".workload.num_phases", static_cast<double>(ws.num_phases));
  }
  return r;
}

}  // namespace tdn::multi
