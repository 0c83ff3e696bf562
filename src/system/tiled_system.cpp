#include "system/tiled_system.hpp"

#include <sstream>
#include <string>

#include "common/prng.hpp"
#include "common/require.hpp"
#include "fault/invariant.hpp"
#include "obs/recorder.hpp"

namespace tdn::system {

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::SNuca: return "S-NUCA";
    case PolicyKind::RNuca: return "R-NUCA";
    case PolicyKind::TdNuca: return "TD-NUCA";
    case PolicyKind::TdNucaBypassOnly: return "TD-NUCA(bypass-only)";
    case PolicyKind::TdNucaDryRun: return "TD-NUCA(dry-run)";
  }
  return "?";
}

std::uint64_t SystemConfig::fingerprint() const {
  // Serialize every field that affects simulation results and hash it.
  std::ostringstream os;
  os << mesh_w << '/' << mesh_h << '/' << static_cast<int>(policy) << '/'
     << static_cast<int>(scheduler) << '/' << hierarchy.l1.size_bytes << '/'
     << hierarchy.l1.associativity << '/' << hierarchy.l1.line_size << '/'
     << hierarchy.l1_latency << '/' << hierarchy.llc_bank.size_bytes << '/'
     << hierarchy.llc_bank.associativity << '/' << hierarchy.llc_latency << '/'
     << hierarchy.bank_service_interval << '/' << hierarchy.l1_mshrs << '/'
     << hierarchy.flush_lines_per_cycle << '/' << hierarchy.mshr_retry_delay
     << '/' << network.link_latency << '/' << network.router_latency << '/'
     << network.link_bytes_per_cycle << '/' << network.control_bytes << '/'
     << network.data_bytes << '/' << dram.access_latency << '/'
     << dram.service_interval << '/' << num_memory_controllers << '/'
     << page_table.page_size << '/' << page_table.fragmentation << '/'
     << page_table.seed << '/' << tlb.entries << '/' << tlb.hit_latency << '/'
     << tlb.miss_penalty << '/' << core.store_buffer_entries << '/'
     << core.store_issue_cost << '/' << core.load_window << '/'
     << core.load_issue_cost << '/' << runtime.dispatch_overhead << '/'
     << runtime.per_dep_overhead << '/' << runtime.dispatch_jitter << '/'
     << runtime.jitter_seed << '/' << tdnuca.rrt_entries << '/'
     << tdnuca.rrt_latency << '/' << tdnuca.bypass_only << '/'
     << rnuca.reclassification_penalty << '/' << rnuca.first_touch_penalty
     << '/' << hooks.decision_overhead << '/' << hooks.isa.per_rrt_slot << '/'
     << hooks.isa.issue_overhead << '/' << hooks.isa.flush_poll_overhead << '/'
     << hooks.dry_run << '/' << hooks.line_size << '/'
     << network.dead_link_backoff << '/' << network.dead_link_max_retries
     << '/' << fault::FaultPlan::parse(fault.plan).canonical() << '/'
     << fault.seed << '/' << fault.rrt_scrub_delay << '/' << vm.canonical();
  const std::string s = os.str();
  return fnv1a64(s.data(), s.size());
}

TiledSystem::TiledSystem(SystemConfig cfg, obs::Recorder* rec)
    : cfg_(cfg), rec_(rec), mesh_(cfg.mesh_w, cfg.mesh_h),
      page_table_(cfg.page_table, cfg.vm) {
  const unsigned n = cfg_.num_cores();
  TDN_REQUIRE(n > 0, "system needs at least one tile");

  net_ = std::make_unique<noc::Network>(mesh_, eq_, cfg_.network);

  // Memory controllers attach along the top and bottom mesh edges (where
  // the DDR PHYs sit on real tiled parts), alternating rows so traffic to
  // memory spreads instead of concentrating on corner links.
  std::vector<CoreId> mc_tiles;
  std::vector<CoreId> edge_tiles;
  for (unsigned x = 0; x < cfg_.mesh_w; ++x) {
    edge_tiles.push_back(x);                                  // top row
    edge_tiles.push_back((cfg_.mesh_h - 1) * cfg_.mesh_w + x);  // bottom row
  }
  for (unsigned i = 0; i < cfg_.num_memory_controllers; ++i)
    mc_tiles.push_back(edge_tiles[i % edge_tiles.size()]);
  mcs_ = std::make_unique<mem::MemControllers>(cfg_.num_memory_controllers,
                                               mc_tiles, cfg_.dram);

  // --- NUCA mapping policy ---------------------------------------------
  switch (cfg_.policy) {
    case PolicyKind::SNuca:
      snuca_policy_ = std::make_unique<nuca::SNucaPolicy>(
          n, cfg_.hierarchy.l1.line_size);
      active_policy_ = snuca_policy_.get();
      break;
    case PolicyKind::RNuca:
      rnuca_policy_ = std::make_unique<nuca::RNucaPolicy>(mesh_, n,
                                                          page_table_,
                                                          cfg_.rnuca);
      active_policy_ = rnuca_policy_.get();
      break;
    case PolicyKind::TdNuca:
    case PolicyKind::TdNucaBypassOnly: {
      auto td_cfg = cfg_.tdnuca;
      td_cfg.bypass_only = (cfg_.policy == PolicyKind::TdNucaBypassOnly);
      tdnuca_policy_ =
          std::make_unique<nuca::TdNucaPolicy>(mesh_, n, td_cfg);
      active_policy_ = tdnuca_policy_.get();
      break;
    }
    case PolicyKind::TdNucaDryRun:
      // Bookkeeping runs (hooks below) but the hierarchy behaves as S-NUCA.
      tdnuca_policy_ =
          std::make_unique<nuca::TdNucaPolicy>(mesh_, n, cfg_.tdnuca);
      snuca_policy_ = std::make_unique<nuca::SNucaPolicy>(
          n, cfg_.hierarchy.l1.line_size);
      active_policy_ = snuca_policy_.get();
      break;
  }

  caches_ = std::make_unique<coherence::CoherentSystem>(
      eq_, *net_, mesh_, *mcs_, *active_policy_, cfg_.hierarchy, n, rec_);
  if (tdnuca_policy_ && active_policy_ != tdnuca_policy_.get()) {
    // Dry-run: the TD policy object still needs CacheOps for completeness.
    tdnuca_policy_->set_ops(caches_.get());
  }

  // --- cores -------------------------------------------------------------
  cores_.reserve(n);
  std::vector<core::SimCore*> core_ptrs;
  std::vector<vm::Mmu*> mmus;
  for (unsigned i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<core::SimCore>(
        i, eq_, *caches_, page_table_, cfg_.core, cfg_.tlb, cfg_.vm));
    core_ptrs.push_back(cores_.back().get());
    mmus.push_back(&cores_.back()->mmu());
  }
  if (rnuca_policy_) rnuca_policy_->set_mmus(mmus);

  // --- runtime -------------------------------------------------------------
  switch (cfg_.scheduler) {
    case SchedulerKind::Fifo:
      scheduler_ = std::make_unique<runtime::FifoScheduler>();
      break;
    case SchedulerKind::Affinity:
      scheduler_ = std::make_unique<runtime::AffinityScheduler>();
      break;
  }
  runtime::RuntimeHooks* hooks = nullptr;
  if (cfg_.policy == PolicyKind::TdNuca ||
      cfg_.policy == PolicyKind::TdNucaBypassOnly ||
      cfg_.policy == PolicyKind::TdNucaDryRun) {
    auto hooks_cfg = cfg_.hooks;
    hooks_cfg.dry_run = (cfg_.policy == PolicyKind::TdNucaDryRun);
    hooks_cfg.line_size = cfg_.hierarchy.l1.line_size;
    hooks_td_ = std::make_unique<tdnuca::TdNucaRuntimeHooks>(
        *tdnuca_policy_, page_table_, n, hooks_cfg, rec_);
    hooks = hooks_td_.get();
  } else {
    hooks_base_ = std::make_unique<runtime::RuntimeHooks>();
    hooks = hooks_base_.get();
  }
  runtime_ = std::make_unique<runtime::RuntimeSystem>(
      eq_, core_ptrs, *scheduler_, *hooks, cfg_.runtime, rec_);
  if (hooks_td_) hooks_td_->set_runtime(runtime_.get());
  if (auto* aff = dynamic_cast<runtime::AffinityScheduler*>(scheduler_.get()))
    aff->set_tasks(&runtime_->tasks());

  // --- fault injection ---------------------------------------------------
  // Wiring only happens with a non-empty plan: every layer keeps a null
  // HealthState pointer otherwise, so an empty plan is bit-identical to a
  // build without fault support.
  if (!cfg_.fault.plan.empty()) {
    fault::FaultInjector::Targets t;
    t.eq = &eq_;
    t.mesh = &mesh_;
    t.net = net_.get();
    t.caches = caches_.get();
    t.mcs = mcs_.get();
    t.tdnuca = tdnuca_policy_.get();
    t.rec = rec_;
    injector_ = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(cfg_.fault.plan), cfg_.fault, t, n,
        cfg_.hierarchy.l1.line_size);
    const fault::HealthState* hs = &injector_->health();
    active_policy_->set_health(hs);
    if (tdnuca_policy_ && active_policy_ != tdnuca_policy_.get())
      tdnuca_policy_->set_health(hs);
    caches_->set_health(hs);
    net_->set_health(hs);
    if (hooks_td_) hooks_td_->set_health(hs);
  }
  if (cfg_.fault.watchdog_budget > 0) {
    watchdog_ =
        std::make_unique<fault::Watchdog>(eq_, cfg_.fault.watchdog_budget);
    watchdog_->set_progress([this] {
      const auto& cs = caches_->stats();
      return runtime_->tasks_completed() + mcs_->total_accesses() +
             caches_->llc_accesses() + cs.l1_hits.value() +
             cs.l1_misses.value();
    });
    watchdog_->add_diagnostic("mshr_outstanding", [this] {
      std::ostringstream os;
      for (unsigned c = 0; c < cfg_.num_cores(); ++c)
        if (const auto v = caches_->mshr_outstanding(c); v != 0)
          os << " core" << c << '=' << v;
      return os.str().empty() ? std::string(" none") : os.str();
    });
    watchdog_->add_diagnostic("blocked_bank_lines", [this] {
      std::ostringstream os;
      for (unsigned b = 0; b < cfg_.num_cores(); ++b)
        if (const auto v = caches_->bank_blocked_lines(b); v != 0)
          os << " bank" << b << '=' << v;
      return os.str().empty() ? std::string(" none") : os.str();
    });
    watchdog_->add_diagnostic("runtime", [this] {
      std::ostringstream os;
      os << " ready_tasks=" << scheduler_->size()
         << " tasks_completed=" << runtime_->tasks_completed();
      if (hooks_td_)
        os << " pending_flushes=" << hooks_td_->pending_flushes();
      return os.str();
    });
  }

  if (rec_ != nullptr) register_observability();
}

void TiledSystem::register_observability() {
  const unsigned n = cfg_.num_cores();
  rec_->attach_clock(&eq_);

  // --- latency attribution sinks -----------------------------------------
  // The coherence layer stamps through rec_->attribution() directly; the
  // NoC and DRAM models additionally feed their own histograms.
  if (obs::LatencyAttribution* attr = rec_->attribution()) {
    net_->set_transit_sinks(&attr->noc_transit(0), &attr->noc_transit(1));
    for (unsigned m = 0; m < mcs_->count(); ++m)
      mcs_->mc(m).set_queue_sink(&attr->dram_queue());
    for (const auto& c : cores_)
      c->mmu().set_obs_sinks(&attr->translation(), &attr->walk());
  }

  // --- trace tracks -----------------------------------------------------
  for (unsigned i = 0; i < n; ++i)
    rec_->set_track_name(i, "core " + std::to_string(i));
  rec_->set_track_name(obs::Recorder::kRuntimeTrack, "runtime");
  rec_->set_track_name(obs::Recorder::kFlushTrack, "flush engine");
  rec_->set_track_name(obs::Recorder::kCoherenceTrack, "coherence");

  // --- epoch time series -------------------------------------------------
  // Interval probes snapshot cumulative counters and report per-epoch
  // deltas via mutable captures; gauges read current state directly.
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
    rec_->add_series(
        "llc.bank" + std::to_string(b) + ".occupancy", [this, b] {
          return static_cast<double>(caches_->bank_occupied_lines(b)) /
                 static_cast<double>(caches_->bank_capacity_lines());
        });
  }
  const double link_cap = static_cast<double>(
      cfg_.network.link_bytes_per_cycle);
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
            const double cap =
                link_cap * static_cast<double>(rec_->config().epoch_cycles);
            return cap > 0 ? delta / cap : 0.0;
          });
    }
  }
  if (tdnuca_policy_) {
    for (unsigned c = 0; c < n; ++c) {
      rec_->add_series("rrt.core" + std::to_string(c) + ".entries",
                       [this, c] {
                         return static_cast<double>(
                             tdnuca_policy_->rrt(c).size());
                       });
    }
  }
  for (unsigned c = 0; c < n; ++c) {
    rec_->add_series(
        "mem.core" + std::to_string(c) + ".tlb_misses",
        [this, c, prev = std::uint64_t{0}]() mutable {
          const std::uint64_t cur = cores_[c]->mmu().tlb_misses();
          const double delta = static_cast<double>(cur - prev);
          prev = cur;
          return delta;
        });
  }
  rec_->add_series("mem.mapped_pages", [this] {
    return static_cast<double>(page_table_.mapped_pages());
  });
  rec_->add_series("mem.frames_used", [this] {
    return static_cast<double>(page_table_.frames_used());
  });
  if (cfg_.vm.enabled) {
    rec_->add_series("vm.walk_cycles",
                     [this, prev = Cycle{0}]() mutable {
                       Cycle cur = 0;
                       for (const auto& c : cores_)
                         cur += c->mmu().walk_cycles();
                       const double delta = static_cast<double>(cur - prev);
                       prev = cur;
                       return delta;
                     });
  }
  rec_->add_series("runtime.ready_tasks",
                   [this] { return static_cast<double>(scheduler_->size()); });
  rec_->add_series("tasks.completed", [this] {
    return static_cast<double>(runtime_->tasks_completed());
  });
  for (unsigned m = 0; m < cfg_.num_memory_controllers; ++m) {
    rec_->add_series("dram.mc" + std::to_string(m) + ".backlog", [this, m] {
      const auto& mc = mcs_->mc(m);
      const Cycle now = eq_.now();
      if (mc.busy_until() <= now) return 0.0;
      // Backlog horizon expressed in queued requests.
      return static_cast<double>(mc.busy_until() - now) /
             static_cast<double>(mc.config().service_interval);
    });
  }
  if (injector_) {
    rec_->set_track_name(obs::Recorder::kFaultTrack, "faults");
    rec_->add_series("fault.healthy_banks", [this] {
      return static_cast<double>(injector_->health().num_healthy());
    });
    rec_->add_series("fault.bounced_requests", [this] {
      return static_cast<double>(
          injector_->health().counters.bounced_requests);
    });
    rec_->add_series("fault.noc_reroutes", [this] {
      return static_cast<double>(injector_->health().counters.noc_reroutes);
    });
  }

  // --- heatmaps -----------------------------------------------------------
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
  for (unsigned d = 0; d < noc::Network::kLinkDirs; ++d) {
    rec_->add_heatmap(
        std::string("noc_link_bytes_") + noc::Network::dir_name(d), w, h,
        [this, n, d] {
          std::vector<double> v(n);
          for (unsigned t = 0; t < n; ++t)
            v[t] = net_->has_link(t, d)
                       ? static_cast<double>(net_->link_bytes(t, d))
                       : 0.0;
          return v;
        });
  }
}

TiledSystem::~TiledSystem() = default;

Cycle TiledSystem::run(Cycle cycle_limit) {
  completed_ = false;
  if (rec_ != nullptr) rec_->arm(eq_);
  if (injector_) injector_->arm();
  if (watchdog_) watchdog_->arm();
  runtime_->run([this] { completed_ = true; });
  eq_.run_until(cycle_limit);
  TDN_REQUIRE(completed_, "simulation drained without completing all tasks");
  if (cfg_.fault.check_invariants) {
    const fault::HealthState* hs =
        injector_ ? &injector_->health() : nullptr;
    const fault::InvariantReport report = fault::check_invariants(
        *caches_, tdnuca_policy_.get(), hooks_td_.get(), hs,
        cfg_.num_cores());
    TDN_CHECK(report.ok(), report.to_string());
  }
  return runtime_->makespan();
}

energy::EnergyBreakdown TiledSystem::energy(
    const energy::EnergyParams& params) const {
  std::uint64_t rrt_lookups = 0;
  if (tdnuca_policy_ && cfg_.policy != PolicyKind::TdNucaDryRun) {
    rrt_lookups = tdnuca_policy_->rrt_hits() + tdnuca_policy_->rrt_misses();
  }
  return energy::compute_energy(*caches_, *net_, *mcs_, rrt_lookups, params);
}

stats::Registry TiledSystem::collect_stats() const {
  stats::Registry r;
  const auto& cs = caches_->stats();
  r.set("sim.cycles", static_cast<double>(runtime_->makespan()));
  r.set("sim.events", static_cast<double>(eq_.executed()));
  r.set("tasks.completed", static_cast<double>(runtime_->tasks_completed()));
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
  for (unsigned b = 0; b < cfg_.num_cores(); ++b) {
    const auto& bc = caches_->bank_counters(b);
    const std::string p = "llc.bank" + std::to_string(b);
    r.set(p + ".requests", static_cast<double>(bc.requests));
    r.set(p + ".hits", static_cast<double>(bc.hits));
    r.set(p + ".misses", static_cast<double>(bc.misses));
    r.set(p + ".writebacks", static_cast<double>(bc.writebacks));
  }
  r.set("nuca.mean_distance", cs.nuca_distance.mean());
  r.set("l1.mean_miss_latency", cs.miss_latency.mean());
  r.set("noc.router_bytes", static_cast<double>(net_->total_router_bytes()));
  r.set("noc.messages", static_cast<double>(net_->messages()));
  r.set("dram.accesses", static_cast<double>(mcs_->total_accesses()));
  const auto e = energy(energy::EnergyParams{});
  r.set("energy.llc_pj", e.llc_pj);
  r.set("energy.noc_pj", e.noc_pj);
  r.set("energy.dram_pj", e.dram_pj);
  r.set("energy.total_pj", e.total_pj());
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t tlb_shootdowns = 0;
  Cycle flush_cycles = 0;
  for (const auto& c : cores_) {
    const vm::Mmu& m = c->mmu();
    const std::string p = "mem.core" + std::to_string(c->id());
    r.set(p + ".tlb_hits", static_cast<double>(m.tlb_hits()));
    r.set(p + ".tlb_misses", static_cast<double>(m.tlb_misses()));
    r.set(p + ".tlb_shootdowns", static_cast<double>(m.tlb_shootdowns()));
    tlb_hits += m.tlb_hits();
    tlb_misses += m.tlb_misses();
    tlb_shootdowns += m.tlb_shootdowns();
    flush_cycles += caches_->flush_busy_cycles(c->id());
  }
  r.set("tlb.hits", static_cast<double>(tlb_hits));
  r.set("tlb.misses", static_cast<double>(tlb_misses));
  r.set("mem.tlb_shootdowns", static_cast<double>(tlb_shootdowns));
  r.set("mem.mapped_pages", static_cast<double>(page_table_.mapped_pages()));
  r.set("mem.frames_used", static_cast<double>(page_table_.frames_used()));
  r.set("flush.busy_cycles", static_cast<double>(flush_cycles));
  if (cfg_.vm.enabled) {
    // tdn::vm keys appear only when the subsystem is on so legacy runs keep
    // the pre-vm key set (same guard discipline as the fault block below).
    std::uint64_t walks = 0, walk_loads = 0, psc_hits = 0, l2_hits = 0;
    Cycle walk_cycles = 0, charge_cycles = 0;
    for (const auto& c : cores_) {
      const vm::Mmu& m = c->mmu();
      walks += m.walks();
      walk_loads += m.walk_loads();
      walk_cycles += m.walk_cycles();
      charge_cycles += m.charge_walk_cycles();
      psc_hits += m.psc_hits();
      l2_hits += m.l2_tlb_hits();
    }
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
  if (tdnuca_policy_) {
    r.set("rrt.mean_occupancy", tdnuca_policy_->mean_rrt_occupancy());
    r.set("rrt.max_occupancy",
          static_cast<double>(tdnuca_policy_->max_rrt_occupancy()));
    r.set("rrt.lookups", static_cast<double>(tdnuca_policy_->rrt_hits() +
                                             tdnuca_policy_->rrt_misses()));
  }
  if (hooks_td_) {
    r.set("tdnuca.bypass_placements",
          static_cast<double>(hooks_td_->bypass_placements()));
    r.set("tdnuca.local_placements",
          static_cast<double>(hooks_td_->local_placements()));
    r.set("tdnuca.replicated_placements",
          static_cast<double>(hooks_td_->replicated_placements()));
    r.set("tdnuca.runtime_overhead_cycles",
          static_cast<double>(hooks_td_->runtime_overhead_cycles()));
    r.set("tdnuca.translate_pages",
          static_cast<double>(hooks_td_->translate_pages()));
    r.set("tdnuca.translate_cycles",
          static_cast<double>(hooks_td_->translate_cycles()));
  }
  if (rnuca_policy_) {
    const auto c = rnuca_policy_->census();
    r.set("rnuca.private_pages", static_cast<double>(c.private_pages));
    r.set("rnuca.shared_ro_pages", static_cast<double>(c.shared_ro_pages));
    r.set("rnuca.shared_pages", static_cast<double>(c.shared_pages));
  }
  if (injector_) {
    // Only present with an active plan so healthy runs keep the pre-fault
    // key set (and thus byte-identical serialized results).
    const fault::FaultCounters& fc = injector_->health().counters;
    r.set("fault.banks_failed", static_cast<double>(fc.banks_failed));
    r.set("fault.banks_slowed", static_cast<double>(fc.banks_slowed));
    r.set("fault.links_failed", static_cast<double>(fc.links_failed));
    r.set("fault.links_degraded", static_cast<double>(fc.links_degraded));
    r.set("fault.bounced_requests",
          static_cast<double>(fc.bounced_requests));
    r.set("fault.dead_bank_writebacks",
          static_cast<double>(fc.dead_bank_writebacks));
    r.set("fault.evacuated_lines", static_cast<double>(fc.evacuated_lines));
    r.set("fault.evacuated_dirty", static_cast<double>(fc.evacuated_dirty));
    r.set("fault.rrt_entries_narrowed",
          static_cast<double>(fc.rrt_entries_narrowed));
    r.set("fault.rrt_entries_dropped",
          static_cast<double>(fc.rrt_entries_dropped));
    r.set("fault.rrt_corruptions", static_cast<double>(fc.rrt_corruptions));
    r.set("fault.rrt_evictions", static_cast<double>(fc.rrt_evictions));
    r.set("fault.rrt_scrubs", static_cast<double>(fc.rrt_scrubs));
    r.set("fault.noc_reroutes", static_cast<double>(fc.noc_reroutes));
    r.set("fault.noc_retries", static_cast<double>(fc.noc_retries));
    r.set("fault.dram_stalls", static_cast<double>(fc.dram_stalls));
    r.set("fault.healthy_banks",
          static_cast<double>(injector_->health().num_healthy()));
  }
  return r;
}

}  // namespace tdn::system
