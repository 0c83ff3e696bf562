#include "multi/multi_system.hpp"

#include <string>

#include "common/require.hpp"
#include "energy/energy_model.hpp"
#include "obs/recorder.hpp"

namespace tdn::multi {

MultiProgramSystem::MultiProgramSystem(system::SystemConfig cfg, MixSpec mix,
                                       MultiOptions opts, obs::Recorder* rec)
    : cfg_(cfg), opts_(opts), rec_(rec), mesh_(cfg.mesh_w, cfg.mesh_h),
      page_table_(cfg.page_table, cfg.vm) {
  const unsigned n = cfg_.num_cores();
  const unsigned num_apps = static_cast<unsigned>(mix.apps.size());
  TDN_REQUIRE(num_apps >= 1, "a mix needs at least one app");
  TDN_REQUIRE(num_apps <= n, "more apps than cores");
  TDN_REQUIRE(cfg_.policy != system::PolicyKind::TdNucaDryRun,
              "TdNucaDryRun is a single-program overhead study; "
              "not supported in multiprogram mode");

  net_ = std::make_unique<noc::Network>(mesh_, eq_, cfg_.network);

  // Memory controllers: identical placement to TiledSystem, so a 1-app mix
  // simulates the very machine the single-program harness builds.
  std::vector<CoreId> mc_tiles;
  std::vector<CoreId> edge_tiles;
  for (unsigned x = 0; x < cfg_.mesh_w; ++x) {
    edge_tiles.push_back(x);
    edge_tiles.push_back((cfg_.mesh_h - 1) * cfg_.mesh_w + x);
  }
  for (unsigned i = 0; i < cfg_.num_memory_controllers; ++i)
    mc_tiles.push_back(edge_tiles[i % edge_tiles.size()]);
  mcs_ = std::make_unique<mem::MemControllers>(cfg_.num_memory_controllers,
                                               mc_tiles, cfg_.dram);

  // --- core / bank partitions ------------------------------------------
  // Row-granular split (multi::row_partitions): app a owns mesh rows
  // [a*rpa, (a+1)*rpa).
  const unsigned rows_per_app = cfg_.mesh_h / std::max(num_apps, 1u);
  const std::vector<CoreMask> part =
      row_partitions(cfg_.mesh_w, cfg_.mesh_h, num_apps);

  // --- per-app address spaces + NUCA policies --------------------------
  apps_.reserve(num_apps);
  std::vector<nuca::MappingPolicy*> app_policies;
  for (unsigned a = 0; a < num_apps; ++a) {
    apps_.push_back(std::make_unique<App>(a * kAppStride + mem::kHeapBase));
    App& app = *apps_.back();
    app.workload_name = mix.apps[a];
    app.cores = opts_.overlap_cores ? CoreMask::first_n(n) : part[a];
    app.banks =
        opts_.mode == PartitionMode::Partitioned ? part[a] : BankMask{};

    switch (cfg_.policy) {
      case system::PolicyKind::SNuca:
        app.snuca = std::make_unique<nuca::SNucaPolicy>(
            n, cfg_.hierarchy.l1.line_size);
        app.policy = app.snuca.get();
        break;
      case system::PolicyKind::RNuca:
        app.rnuca = std::make_unique<nuca::RNucaPolicy>(mesh_, n, page_table_,
                                                        cfg_.rnuca);
        app.policy = app.rnuca.get();
        break;
      case system::PolicyKind::TdNuca:
      case system::PolicyKind::TdNucaBypassOnly: {
        auto td_cfg = cfg_.tdnuca;
        td_cfg.bypass_only =
            (cfg_.policy == system::PolicyKind::TdNucaBypassOnly);
        app.tdnuca = std::make_unique<nuca::TdNucaPolicy>(mesh_, n, td_cfg);
        app.policy = app.tdnuca.get();
        break;
      }
      case system::PolicyKind::TdNucaDryRun:
        break;  // rejected above
    }
    if (opts_.mode == PartitionMode::Partitioned)
      app.policy->set_partition(app.banks, part[a]);
    app_policies.push_back(app.policy);
  }

  router_ = std::make_unique<AppRouter>(app_policies);
  // The hierarchy's set_ops lands on the router, which fans it out.
  caches_ = std::make_unique<coherence::CoherentSystem>(
      eq_, *net_, mesh_, *mcs_, *router_, cfg_.hierarchy, n, rec_);

  // --- per-app LLC accounting (+ optional way quotas) -------------------
  coherence::CoherentSystem::AppView view;
  view.num_apps = num_apps;
  view.core_app.resize(n);
  for (unsigned c = 0; c < n; ++c) {
    view.core_app[c] =
        opts_.overlap_cores
            ? static_cast<std::uint8_t>(c % num_apps)  // home-app attribution
            : static_cast<std::uint8_t>(c / (rows_per_app * cfg_.mesh_w));
  }
  if (opts_.mode == PartitionMode::Partitioned && opts_.ways_per_app > 0) {
    TDN_REQUIRE(num_apps * opts_.ways_per_app <=
                    cfg_.hierarchy.llc_bank.associativity,
                "way quotas exceed LLC associativity");
    view.ways.resize(num_apps);
    for (unsigned a = 0; a < num_apps; ++a)
      view.ways[a] = {a * opts_.ways_per_app, opts_.ways_per_app};
  }
  caches_->set_app_view(std::move(view));

  // --- cores ------------------------------------------------------------
  cores_.reserve(n);
  std::vector<vm::Mmu*> mmus;
  for (unsigned i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<core::SimCore>(
        i, eq_, *caches_, page_table_, cfg_.core, cfg_.tlb, cfg_.vm));
    mmus.push_back(&cores_.back()->mmu());
  }
  for (auto& app : apps_)
    if (app->rnuca) app->rnuca->set_mmus(mmus);

  // --- per-app runtimes -------------------------------------------------
  for (unsigned a = 0; a < num_apps; ++a) {
    App& app = *apps_[a];
    switch (cfg_.scheduler) {
      case system::SchedulerKind::Fifo:
        app.scheduler = std::make_unique<runtime::FifoScheduler>();
        break;
      case system::SchedulerKind::Affinity:
        app.scheduler = std::make_unique<runtime::AffinityScheduler>();
        break;
    }
    runtime::RuntimeHooks* hooks = nullptr;
    if (app.tdnuca) {
      auto hooks_cfg = cfg_.hooks;
      hooks_cfg.line_size = cfg_.hierarchy.l1.line_size;
      app.hooks_td = std::make_unique<tdnuca::TdNucaRuntimeHooks>(
          *app.tdnuca, page_table_, n, hooks_cfg, rec_);
      hooks = app.hooks_td.get();
    } else {
      app.hooks_base = std::make_unique<runtime::RuntimeHooks>();
      hooks = app.hooks_base.get();
    }
    std::vector<core::SimCore*> core_ptrs;
    app.cores.for_each([&](CoreId c) { core_ptrs.push_back(cores_[c].get()); });
    // Distinct jitter streams: co-scheduled runtimes must not mirror each
    // other's dispatch noise (and a shared stream would make results depend
    // on app completion interleaving).
    auto rt_cfg = cfg_.runtime;
    rt_cfg.jitter_seed += 0x9E3779B97F4A7C15ull * a;
    app.rt = std::make_unique<runtime::RuntimeSystem>(
        eq_, core_ptrs, *app.scheduler, *hooks, rt_cfg, rec_);
    if (app.hooks_td) app.hooks_td->set_runtime(app.rt.get());
    if (auto* aff =
            dynamic_cast<runtime::AffinityScheduler*>(app.scheduler.get()))
      aff->set_tasks(&app.rt->tasks());
  }

  // --- fault injection --------------------------------------------------
  if (!cfg_.fault.plan.empty()) {
    fault::FaultInjector::Targets t;
    t.eq = &eq_;
    t.mesh = &mesh_;
    t.net = net_.get();
    t.caches = caches_.get();
    t.mcs = mcs_.get();
    // No RRT scrub target: each app owns its own RRT set, and the policies'
    // in-map health guards already mask dead banks out of stale entries.
    t.tdnuca = nullptr;
    t.rec = rec_;
    injector_ = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(cfg_.fault.plan), cfg_.fault, t, n,
        cfg_.hierarchy.l1.line_size);
    const fault::HealthState* hs = &injector_->health();
    for (auto& app : apps_) {
      app->policy->set_health(hs);
      if (app->hooks_td) app->hooks_td->set_health(hs);
    }
    caches_->set_health(hs);
    net_->set_health(hs);
  }

  if (rec_ != nullptr) register_observability();
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
        workloads::BuildContext{app.vspace, *app.rt});
    TDN_REQUIRE(app.vspace.footprint() < kAppStride,
                "app footprint overflows its address-space slot");
  }
}

Cycle MultiProgramSystem::run(Cycle cycle_limit) {
  TDN_REQUIRE(built_, "call build() before run()");
  completed_ = false;
  if (rec_ != nullptr) rec_->arm(eq_);
  if (injector_) injector_->arm();
  unsigned remaining = num_apps();
  for (unsigned a = 0; a < num_apps(); ++a) {
    apps_[a]->done = false;
    apps_[a]->rt->run([this, a, &remaining] {
      apps_[a]->done = true;
      if (--remaining == 0) completed_ = true;
    });
  }
  if (opts_.overlap_cores) {
    // Apps contend for cores task-by-task: when one app frees a core, every
    // co-runner gets a chance to claim it.
    for (unsigned a = 0; a < num_apps(); ++a) {
      apps_[a]->rt->set_on_task_complete([this, a] {
        for (unsigned b = 0; b < num_apps(); ++b)
          if (b != a && !apps_[b]->done) apps_[b]->rt->kick();
      });
    }
  }
  eq_.run_until(cycle_limit);
  TDN_REQUIRE(completed_, "mix drained without completing every app");
  Cycle makespan = 0;
  for (const auto& app : apps_)
    makespan = std::max(makespan, app->rt->makespan());
  return makespan;
}

void MultiProgramSystem::register_observability() {
  const unsigned n = cfg_.num_cores();
  rec_->attach_clock(&eq_);
  if (obs::LatencyAttribution* attr = rec_->attribution()) {
    net_->set_transit_sinks(&attr->noc_transit(0), &attr->noc_transit(1));
    for (unsigned m = 0; m < mcs_->count(); ++m)
      mcs_->mc(m).set_queue_sink(&attr->dram_queue());
  }
  for (unsigned i = 0; i < n; ++i)
    rec_->set_track_name(i, "core " + std::to_string(i));
  rec_->set_track_name(obs::Recorder::kRuntimeTrack, "runtime");
  rec_->set_track_name(obs::Recorder::kFlushTrack, "flush engine");
  rec_->set_track_name(obs::Recorder::kCoherenceTrack, "coherence");

  // --- machine-level series and heatmaps (as in TiledSystem) --------------
  for (unsigned b = 0; b < n; ++b) {
    rec_->add_series(
        "llc.bank" + std::to_string(b) + ".hit_ratio",
        [this, b, ph = std::uint64_t{0}, pm = std::uint64_t{0}]() mutable {
          const auto& c = caches_->bank_counters(b);
          const std::uint64_t dh = c.hits - ph;
          const std::uint64_t dm = c.misses - pm;
          ph = c.hits;
          pm = c.misses;
          return (dh + dm) > 0
                     ? static_cast<double>(dh) / static_cast<double>(dh + dm)
                     : 0.0;
        });
    rec_->add_series("llc.bank" + std::to_string(b) + ".occupancy",
                     [this, b] {
                       return static_cast<double>(
                                  caches_->bank_occupied_lines(b)) /
                              static_cast<double>(
                                  caches_->bank_capacity_lines());
                     });
  }
  const double link_cap =
      static_cast<double>(cfg_.network.link_bytes_per_cycle);
  for (unsigned t = 0; t < n; ++t) {
    for (unsigned d = 0; d < noc::Network::kLinkDirs; ++d) {
      if (!net_->has_link(t, d)) continue;
      rec_->add_series(
          "noc.t" + std::to_string(t) + "." + noc::Network::dir_name(d) +
              ".util",
          [this, t, d, link_cap, prev = std::uint64_t{0}]() mutable {
            const std::uint64_t cur = net_->link_bytes(t, d);
            const double delta = static_cast<double>(cur - prev);
            prev = cur;
            const double full =
                link_cap * static_cast<double>(rec_->config().epoch_cycles);
            return full > 0 ? delta / full : 0.0;
          });
    }
  }
  for (unsigned m = 0; m < cfg_.num_memory_controllers; ++m) {
    rec_->add_series("dram.mc" + std::to_string(m) + ".backlog", [this, m] {
      const auto& mc = mcs_->mc(m);
      const Cycle now = eq_.now();
      if (mc.busy_until() <= now) return 0.0;
      return static_cast<double>(mc.busy_until() - now) /
             static_cast<double>(mc.config().service_interval);
    });
  }
  if (injector_) {
    rec_->set_track_name(obs::Recorder::kFaultTrack, "faults");
    rec_->add_series("fault.healthy_banks", [this] {
      return static_cast<double>(injector_->health().num_healthy());
    });
  }
  const unsigned w = cfg_.mesh_w;
  const unsigned h = cfg_.mesh_h;
  rec_->add_heatmap("llc_bank_accesses", w, h, [this, n] {
    std::vector<double> v(n);
    for (unsigned b = 0; b < n; ++b) {
      const auto& c = caches_->bank_counters(b);
      v[b] = static_cast<double>(c.requests + c.writebacks);
    }
    return v;
  });
  rec_->add_heatmap("llc_bank_hits", w, h, [this, n] {
    std::vector<double> v(n);
    for (unsigned b = 0; b < n; ++b)
      v[b] = static_cast<double>(caches_->bank_counters(b).hits);
    return v;
  });
  rec_->add_heatmap("noc_router_bytes", w, h, [this, n] {
    std::vector<double> v(n);
    for (unsigned t = 0; t < n; ++t)
      v[t] = static_cast<double>(net_->router_bytes_at(t));
    return v;
  });
  rec_->add_heatmap("cross_app_conflicts", w, h, [this, n] {
    std::vector<double> v(n);
    for (unsigned b = 0; b < n; ++b)
      v[b] = static_cast<double>(caches_->bank_cross_app_conflicts(b));
    return v;
  });

  const double cap = static_cast<double>(caches_->bank_capacity_lines()) *
                     static_cast<double>(n);
  for (unsigned a = 0; a < num_apps(); ++a) {
    // Where each app's footprint actually lives — the colocation heatmap.
    rec_->add_heatmap("app" + std::to_string(a) + "_resident_lines", cfg_.mesh_w,
                      cfg_.mesh_h, [this, a, n] {
                        std::vector<double> v(n);
                        for (unsigned b = 0; b < n; ++b)
                          v[b] = static_cast<double>(
                              caches_->app_resident_lines(a, b));
                        return v;
                      });
  }
  for (unsigned a = 0; a < num_apps(); ++a) {
    const std::string p = "app" + std::to_string(a);
    rec_->add_series(p + ".llc.occupancy", [this, a, cap] {
      return static_cast<double>(caches_->app_resident_lines(a)) / cap;
    });
    rec_->add_series(
        p + ".llc.hit_ratio",
        [this, a, ph = std::uint64_t{0}, pm = std::uint64_t{0}]() mutable {
          const auto& c = caches_->app_counters(a);
          const std::uint64_t dh = c.llc_hits - ph;
          const std::uint64_t dm = c.llc_misses - pm;
          ph = c.llc_hits;
          pm = c.llc_misses;
          return (dh + dm) > 0
                     ? static_cast<double>(dh) / static_cast<double>(dh + dm)
                     : 0.0;
        });
    rec_->add_series(p + ".tasks.completed", [this, a] {
      return static_cast<double>(apps_[a]->rt->tasks_completed());
    });
    rec_->add_series(p + ".runtime.ready_tasks", [this, a] {
      return static_cast<double>(apps_[a]->scheduler->size());
    });
  }
  rec_->add_series("multi.cross_app_conflicts", [this] {
    return static_cast<double>(caches_->cross_app_conflicts());
  });
}

stats::Registry MultiProgramSystem::collect_stats() const {
  stats::Registry r;
  const unsigned n = cfg_.num_cores();
  const auto& cs = caches_->stats();

  Cycle makespan = 0;
  std::size_t tasks = 0;
  for (const auto& app : apps_) {
    makespan = std::max(makespan, app->rt->makespan());
    tasks += app->rt->tasks_completed();
  }
  r.set("sim.cycles", static_cast<double>(makespan));
  r.set("sim.events", static_cast<double>(eq_.executed()));
  r.set("tasks.completed", static_cast<double>(tasks));
  r.set("l1.hits", static_cast<double>(cs.l1_hits.value()));
  r.set("l1.misses", static_cast<double>(cs.l1_misses.value()));
  r.set("llc.requests", static_cast<double>(cs.llc_requests.value()));
  r.set("llc.hits", static_cast<double>(cs.llc_hits.value()));
  r.set("llc.misses", static_cast<double>(cs.llc_misses.value()));
  r.set("llc.writebacks", static_cast<double>(cs.llc_writebacks.value()));
  r.set("llc.accesses", static_cast<double>(caches_->llc_accesses()));
  r.set("llc.hit_ratio", caches_->llc_hit_ratio());
  r.set("llc.bypass_reads", static_cast<double>(cs.bypass_reads.value()));
  r.set("cache.forced_unsafe_evictions",
        static_cast<double>(caches_->forced_unsafe_evictions()));
  for (unsigned b = 0; b < n; ++b) {
    const auto& bc = caches_->bank_counters(b);
    const std::string p = "llc.bank" + std::to_string(b);
    r.set(p + ".requests", static_cast<double>(bc.requests));
    r.set(p + ".hits", static_cast<double>(bc.hits));
    r.set(p + ".misses", static_cast<double>(bc.misses));
    r.set(p + ".writebacks", static_cast<double>(bc.writebacks));
    r.set(p + ".cross_app_conflicts",
          static_cast<double>(caches_->bank_cross_app_conflicts(b)));
  }
  r.set("nuca.mean_distance", cs.nuca_distance.mean());
  r.set("l1.mean_miss_latency", cs.miss_latency.mean());
  r.set("noc.router_bytes", static_cast<double>(net_->total_router_bytes()));
  r.set("noc.messages", static_cast<double>(net_->messages()));
  r.set("dram.accesses", static_cast<double>(mcs_->total_accesses()));

  // Translation aggregates across every core's Mmu (per-core breakdowns are
  // a single-program TiledSystem affordance).
  {
    std::uint64_t tlb_hits = 0, tlb_misses = 0, tlb_shootdowns = 0;
    std::uint64_t walks = 0, walk_loads = 0, psc_hits = 0, l2_hits = 0;
    Cycle walk_cycles = 0, charge_cycles = 0;
    for (const auto& core : cores_) {
      const vm::Mmu& m = core->mmu();
      tlb_hits += m.tlb_hits();
      tlb_misses += m.tlb_misses();
      tlb_shootdowns += m.tlb_shootdowns();
      walks += m.walks();
      walk_loads += m.walk_loads();
      walk_cycles += m.walk_cycles();
      charge_cycles += m.charge_walk_cycles();
      psc_hits += m.psc_hits();
      l2_hits += m.l2_tlb_hits();
    }
    r.set("tlb.hits", static_cast<double>(tlb_hits));
    r.set("tlb.misses", static_cast<double>(tlb_misses));
    r.set("mem.tlb_shootdowns", static_cast<double>(tlb_shootdowns));
    r.set("mem.mapped_pages",
          static_cast<double>(page_table_.mapped_pages()));
    r.set("mem.frames_used", static_cast<double>(page_table_.frames_used()));
    if (cfg_.vm.enabled) {
      r.set("vm.walks", static_cast<double>(walks));
      r.set("vm.walk_loads", static_cast<double>(walk_loads));
      r.set("vm.walk_cycles", static_cast<double>(walk_cycles));
      r.set("vm.isa_walk_cycles", static_cast<double>(charge_cycles));
      r.set("vm.psc_hits", static_cast<double>(psc_hits));
      r.set("vm.l2_tlb_hits", static_cast<double>(l2_hits));
      r.set("vm.pages_4k",
            static_cast<double>(page_table_.pages_of(vm::kPage4K)));
      r.set("vm.pages_2m",
            static_cast<double>(page_table_.pages_of(vm::kPage2M)));
      r.set("vm.pages_1g",
            static_cast<double>(page_table_.pages_of(vm::kPage1G)));
      r.set("vm.huge_fallbacks",
            static_cast<double>(page_table_.huge_fallbacks()));
      r.set("vm.punctured_frames",
            static_cast<double>(page_table_.punctured_frames()));
    }
  }

  std::uint64_t rrt_lookups = 0;
  for (const auto& app : apps_)
    if (app->tdnuca)
      rrt_lookups += app->tdnuca->rrt_hits() + app->tdnuca->rrt_misses();
  const auto e = energy::compute_energy(*caches_, *net_, *mcs_, rrt_lookups,
                                        energy::EnergyParams{});
  r.set("energy.llc_pj", e.llc_pj);
  r.set("energy.noc_pj", e.noc_pj);
  r.set("energy.dram_pj", e.dram_pj);
  r.set("energy.total_pj", e.total_pj());

  // --- colocation aggregates -------------------------------------------
  r.set("multi.num_apps", static_cast<double>(num_apps()));
  r.set("multi.ways_per_app", static_cast<double>(opts_.ways_per_app));
  r.set("multi.partitioned",
        opts_.mode == PartitionMode::Partitioned ? 1.0 : 0.0);
  r.set("multi.overlap_cores", opts_.overlap_cores ? 1.0 : 0.0);
  r.set("multi.cross_app_conflicts",
        static_cast<double>(caches_->cross_app_conflicts()));

  // --- per-app namespaces -----------------------------------------------
  const double llc_cap = static_cast<double>(caches_->bank_capacity_lines()) *
                         static_cast<double>(n);
  for (unsigned a = 0; a < num_apps(); ++a) {
    const App& app = *apps_[a];
    const std::string p = "app" + std::to_string(a);
    r.set(p + ".sim.cycles", static_cast<double>(app.rt->makespan()));
    r.set(p + ".tasks.completed",
          static_cast<double>(app.rt->tasks_completed()));
    r.set(p + ".cores", static_cast<double>(app.cores.count()));
    r.set(p + ".banks", static_cast<double>(
                            app.banks.empty() ? n : app.banks.count()));
    const auto& ac = caches_->app_counters(a);
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
    const std::uint64_t resident = caches_->app_resident_lines(a);
    r.set(p + ".llc.resident_lines", static_cast<double>(resident));
    r.set(p + ".llc.occupancy", static_cast<double>(resident) / llc_cap);
    if (app.tdnuca) {
      r.set(p + ".rrt.lookups",
            static_cast<double>(app.tdnuca->rrt_hits() +
                                app.tdnuca->rrt_misses()));
    }
    const auto& ws = app.workload->stats();
    r.set(p + ".workload.input_bytes", static_cast<double>(ws.input_bytes));
    r.set(p + ".workload.num_tasks", static_cast<double>(ws.num_tasks));
    r.set(p + ".workload.num_phases", static_cast<double>(ws.num_phases));
  }
  return r;
}

}  // namespace tdn::multi
