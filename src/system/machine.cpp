#include "system/machine.hpp"

#include <sstream>
#include <string>

#include "ckpt/codec.hpp"
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
     << tdnuca.rrt_latency << '/'
     // Deleted bypass_only, dry_run and line_size keep their v8 slots.
     << "0/"
     << rnuca.reclassification_penalty << '/' << rnuca.first_touch_penalty
     << '/' << hooks.decision_overhead << '/' << hooks.isa.per_rrt_slot << '/'
     << hooks.isa.issue_overhead << '/' << hooks.isa.flush_poll_overhead << '/'
     << "0/64/"
     << network.dead_link_backoff << '/' << network.dead_link_max_retries
     << '/' << fault::FaultPlan::parse(fault.plan).canonical() << '/'
     << fault.seed << '/' << fault.rrt_scrub_delay << '/' << vm.canonical();
  const std::string s = os.str();
  return fnv1a64(s.data(), s.size());
}

namespace {

double mean(double total, double weight) {
  return weight > 0 ? total / weight : 0.0;
}

void put(ckpt::Encoder& e, std::uint64_t v) { e.u64(v); }
void put(ckpt::Encoder& e, double v) { e.f64(v); }
void get(ckpt::Decoder& d, std::uint64_t& v) { v = d.u64(); }
void get(ckpt::Decoder& d, double& v) { v = d.f64(); }

std::string nonzero_list(const char* unit, unsigned n,
                         const std::function<std::uint64_t(unsigned)>& get) {
  std::ostringstream os;
  for (unsigned i = 0; i < n; ++i)
    if (const auto v = get(i); v != 0) os << ' ' << unit << i << '=' << v;
  return os.str().empty() ? std::string(" none") : os.str();
}

}  // namespace

std::string Program::describe() const {
  std::ostringstream os;
  os << " ready_tasks=" << scheduler->size()
     << " tasks_completed=" << rt->tasks_completed();
  if (hooks_td) os << " pending_flushes=" << hooks_td->pending_flushes();
  return os.str();
}

Machine::Machine(const SystemConfig& cfg, obs::Recorder* rec)
    : cfg_(cfg), rec_(rec), mesh_(cfg.mesh_w, cfg.mesh_h),
      page_table_(cfg.page_table, cfg.vm) {
  TDN_REQUIRE(cfg_.num_cores() > 0, "system needs at least one tile");
  net_ = std::make_unique<noc::Network>(mesh_, eq_, cfg_.network);

  // Memory controllers attach along the top and bottom mesh edges (where
  // the DDR PHYs sit on real tiled parts), alternating rows so traffic to
  // memory spreads instead of concentrating on corner links.
  std::vector<CoreId> edge_tiles;
  for (unsigned x = 0; x < cfg_.mesh_w; ++x) {
    edge_tiles.push_back(x);                                  // top row
    edge_tiles.push_back((cfg_.mesh_h - 1) * cfg_.mesh_w + x);  // bottom row
  }
  std::vector<CoreId> mc_tiles;
  for (unsigned i = 0; i < cfg_.num_memory_controllers; ++i)
    mc_tiles.push_back(edge_tiles[i % edge_tiles.size()]);
  mcs_ = std::make_unique<mem::MemControllers>(cfg_.num_memory_controllers,
                                               mc_tiles, cfg_.dram);
}

Machine::~Machine() = default;

PolicySet& Machine::add_policies(bool alternate_rnuca) {
  TDN_REQUIRE(!caches_, "add policies before building the machine");
  const unsigned n = cfg_.num_cores();
  const PolicyKind k = cfg_.policy;
  auto& set = *policies_.emplace_back(std::make_unique<PolicySet>());
  // A dry run keeps TD-NUCA's bookkeeping (the hooks drive it) while the
  // hierarchy places lines as S-NUCA.
  if (k == PolicyKind::SNuca || k == PolicyKind::TdNucaDryRun) {
    set.snuca =
        std::make_unique<nuca::SNucaPolicy>(n, cfg_.hierarchy.l1.line_size);
  }
  if (k == PolicyKind::RNuca || alternate_rnuca) {
    set.rnuca = std::make_unique<nuca::RNucaPolicy>(mesh_, n, page_table_,
                                                    cfg_.rnuca);
  }
  if (k != PolicyKind::SNuca && k != PolicyKind::RNuca)
    set.tdnuca = std::make_unique<nuca::TdNucaPolicy>(mesh_, n, cfg_.tdnuca);
  if (set.snuca)
    set.active = set.snuca.get();
  else if (k == PolicyKind::RNuca)
    set.active = set.rnuca.get();
  else
    set.active = set.tdnuca.get();
  return set;
}

void Machine::build(nuca::MappingPolicy& top, nuca::TdNucaPolicy* rrt) {
  TDN_REQUIRE(!caches_, "machine already built");
  const unsigned n = cfg_.num_cores();
  caches_ = std::make_unique<coherence::CoherentSystem>(
      eq_, *net_, mesh_, *mcs_, top, cfg_.hierarchy, n, rec_);
  cores_.reserve(n);
  std::vector<vm::Mmu*> mmus;
  for (unsigned i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<core::SimCore>(
        i, eq_, *caches_, page_table_, cfg_.core, cfg_.tlb, cfg_.vm));
    mmus.push_back(&cores_.back()->mmu());
  }
  // Every policy gets the cache operations directly, whether the hierarchy
  // consults it, an AppRouter does, or nothing does yet (a dry run's
  // TD-NUCA, an adaptive slot's alternate).
  for (const auto& set : policies_) {
    set->for_each([this](nuca::MappingPolicy& p) { p.set_ops(caches_.get()); });
    if (set->rnuca) set->rnuca->set_mmus(mmus);
  }
  wire_faults(rrt);
  if (rec_ != nullptr) register_observability();
}

void Machine::wire_faults(nuca::TdNucaPolicy* rrt) {
  // Wiring only happens with a non-empty plan: every layer keeps a null
  // HealthState pointer otherwise, so an empty plan is bit-identical to a
  // build without fault support.
  if (cfg_.fault.plan.empty()) return;
  fault::FaultPlan plan = fault::FaultPlan::parse(cfg_.fault.plan);
  bool has_rrts = false;
  for (const auto& set : policies_) has_rrts = has_rrts || set->tdnuca;
  if (rrt == nullptr && has_rrts) {
    for (const fault::FaultEvent& ev : plan.events()) {
      TDN_REQUIRE(ev.kind != fault::FaultKind::RrtFlip &&
                      ev.kind != fault::FaultKind::RrtEvict,
                  std::string("fault plan: ") + fault::to_string(ev.kind) +
                      "@core" + std::to_string(ev.unit) +
                      " has no RRT to hit: each program here owns its own "
                      "RRT set, and the fault injector targets none of them");
    }
  }
  const fault::FaultInjector::Targets t{&eq_,         &mesh_, net_.get(),
                                        caches_.get(), mcs_.get(), rrt,
                                        rec_};
  injector_ = std::make_unique<fault::FaultInjector>(
      std::move(plan), cfg_.fault, t, cfg_.num_cores(),
      cfg_.hierarchy.l1.line_size);
  const fault::HealthState* hs = &injector_->health();
  for (const auto& set : policies_)
    set->for_each([hs](nuca::MappingPolicy& p) { p.set_health(hs); });
  caches_->set_health(hs);
  net_->set_health(hs);
}

Program Machine::make_program(nuca::TdNucaPolicy* td, const CoreMask& cores,
                              std::uint64_t stream) {
  Program p;
  switch (cfg_.scheduler) {
    case SchedulerKind::Fifo:
      p.scheduler = std::make_unique<runtime::FifoScheduler>();
      break;
    case SchedulerKind::Affinity:
      p.scheduler = std::make_unique<runtime::AffinityScheduler>();
      break;
  }
  if (td != nullptr) {
    // The TD-NUCA hardware is the same in every variant; the hooks differ.
    tdnuca::Variant variant = tdnuca::Variant::Full;
    if (cfg_.policy == PolicyKind::TdNucaBypassOnly)
      variant = tdnuca::Variant::BypassOnly;
    else if (cfg_.policy == PolicyKind::TdNucaDryRun)
      variant = tdnuca::Variant::DryRun;
    auto hooks = std::make_unique<tdnuca::TdNucaRuntimeHooks>(
        *td, page_table_, cfg_.num_cores(), variant,
        cfg_.hierarchy.l1.line_size, cfg_.hooks, rec_);
    hooks->set_health(health());
    p.hooks_td = hooks.get();
    p.hooks = std::move(hooks);
  } else {
    p.hooks = std::make_unique<runtime::RuntimeHooks>();
  }
  std::vector<core::SimCore*> core_ptrs;
  cores.for_each([&](CoreId c) { core_ptrs.push_back(cores_.at(c).get()); });
  // Distinct jitter streams: co-scheduled runtimes must not mirror each
  // other's dispatch noise.
  auto rt_cfg = cfg_.runtime;
  rt_cfg.jitter_seed += 0x9E3779B97F4A7C15ull * stream;
  p.rt = std::make_unique<runtime::RuntimeSystem>(
      eq_, std::move(core_ptrs), *p.scheduler, *p.hooks, rt_cfg, rec_);
  if (p.hooks_td) p.hooks_td->set_runtime(p.rt.get());
  if (auto* aff = dynamic_cast<runtime::AffinityScheduler*>(p.scheduler.get()))
    aff->set_tasks(&p.rt->tasks());
  return p;
}

void Machine::register_observability() {
  const unsigned n = cfg_.num_cores();
  rec_->attach_clock(&eq_);

  // --- latency attribution sinks -----------------------------------------
  // The coherence layer stamps through rec_->attribution() directly; the
  // NoC, DRAM and MMU models additionally feed their own histograms.
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
  if (injector_) rec_->set_track_name(obs::Recorder::kFaultTrack, "faults");

  // --- epoch time series -------------------------------------------------
  // Interval probes report per-epoch deltas of cumulative counters; gauges
  // read current state directly.
  for (unsigned b = 0; b < n; ++b) {
    rec_->add_series("llc.bank" + std::to_string(b) + ".hit_ratio",
                     obs::epoch_hit_ratio([this, b] {
                       const auto& c = caches_->bank_counters(b);
                       return std::pair{c.hits, c.misses};
                     }));
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
            const double delta =
                static_cast<double>(obs::since(prev, net_->link_bytes(t, d)));
            const double cap =
                link_cap * static_cast<double>(rec_->config().epoch_cycles);
            return cap > 0 ? delta / cap : 0.0;
          });
    }
  }
  for (unsigned c = 0; c < n; ++c) {
    rec_->add_series("mem.core" + std::to_string(c) + ".tlb_misses",
                     [this, c, prev = std::uint64_t{0}]() mutable {
                       return static_cast<double>(
                           obs::since(prev, cores_[c]->mmu().tlb_misses()));
                     });
  }
  rec_->add_series("mem.mapped_pages", [this] {
    return static_cast<double>(page_table_.mapped_pages());
  });
  rec_->add_series("mem.frames_used", [this] {
    return static_cast<double>(page_table_.frames_used());
  });
  if (cfg_.vm.enabled) {
    rec_->add_series("vm.walk_cycles", [this, prev = Cycle{0}]() mutable {
      Cycle cur = 0;
      for (const auto& c : cores_) cur += c->mmu().walk_cycles();
      return static_cast<double>(obs::since(prev, cur));
    });
  }
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
  rec_->add_heatmap("llc_bank_accesses", w, h,
                    obs::per_tile(n, [this](unsigned b) {
                      const auto& c = caches_->bank_counters(b);
                      return c.requests + c.writebacks;
                    }));
  rec_->add_heatmap("llc_bank_hits", w, h, obs::per_tile(n, [this](unsigned b) {
                      return caches_->bank_counters(b).hits;
                    }));
  rec_->add_heatmap("noc_router_bytes", w, h,
                    obs::per_tile(n, [this](unsigned t) {
                      return net_->router_bytes_at(t);
                    }));
  for (unsigned d = 0; d < noc::Network::kLinkDirs; ++d) {
    rec_->add_heatmap(
        std::string("noc_link_bytes_") + noc::Network::dir_name(d), w, h,
        obs::per_tile(n, [this, d](unsigned t) {
          return net_->has_link(t, d) ? net_->link_bytes(t, d) : 0;
        }));
  }
}

void Machine::arm(std::optional<Cycle> resume) {
  if (resume) eq_.fast_forward(*resume);
  if (rec_ != nullptr) rec_->arm(eq_);
  if (!injector_) return;
  if (resume)
    injector_->arm_from(*resume);
  else
    injector_->arm();
}

fault::Watchdog* Machine::arm_watchdog(
    std::function<std::uint64_t()> program_progress) {
  if (cfg_.fault.watchdog_budget == 0) return nullptr;
  watchdog_ =
      std::make_unique<fault::Watchdog>(eq_, cfg_.fault.watchdog_budget);
  // Any memory-system traffic or program progress within a budget window
  // counts. Every term is a running total that no checkpoint resets.
  watchdog_->set_progress([this, program = std::move(program_progress)] {
    const auto& cs = caches_->stats();
    return program() + mcs_->total_accesses() + caches_->llc_accesses() +
           cs.l1_hits.value() + cs.l1_misses.value();
  });
  watchdog_->add_diagnostic("mshr_outstanding", [this] {
    return nonzero_list("core", cfg_.num_cores(), [this](unsigned c) {
      return caches_->mshr_outstanding(c);
    });
  });
  watchdog_->add_diagnostic("blocked_bank_lines", [this] {
    return nonzero_list("bank", cfg_.num_cores(), [this](unsigned b) {
      return caches_->bank_blocked_lines(b);
    });
  });
  watchdog_->arm();
  return watchdog_.get();
}

void Machine::check_invariants(const nuca::TdNucaPolicy* policy,
                               const tdnuca::TdNucaRuntimeHooks* hooks) const {
  if (!cfg_.fault.check_invariants) return;
  const fault::InvariantReport report = fault::check_invariants(
      *caches_, policy, hooks, health(), cfg_.num_cores());
  TDN_CHECK(report.ok(), report.to_string());
}

template <class F, class... C>
void Machine::each(F&& f, C&... c) {
  f(c.llc_hits...);
  f(c.bypass_reads...);
  f(c.noc_messages...);
  f(c.en.llc_requests...);
  f(c.en.llc_misses...);
  f(c.en.llc_writebacks...);
  f(c.en.flush_llc_lines...);
  f(c.en.l1_hits...);
  f(c.en.l1_misses...);
  f(c.en.flush_l1_lines...);
  f(c.en.noc_router_bytes...);
  f(c.en.dram_accesses...);
  f(c.en.rrt_lookups...);
  f(c.nuca_total...);
  f(c.nuca_weight...);
  f(c.miss_lat_total...);
  f(c.miss_lat_weight...);
  f(c.tlb_hits...);
  f(c.tlb_misses...);
  f(c.tlb_shootdowns...);
  f(c.l2_tlb_hits...);
  f(c.walks...);
  f(c.walk_loads...);
  f(c.walk_cycles...);
  f(c.isa_walk_cycles...);
  f(c.psc_hits...);
  f(c.huge_fallbacks...);
}

Machine::Counters Machine::fresh() const {
  // RRT lookups of every TD-NUCA policy that places lines (not dry runs).
  std::uint64_t rrt_lookups = 0;
  for (const auto& set : policies_)
    if (set->tdnuca && cfg_.policy != PolicyKind::TdNucaDryRun)
      rrt_lookups += set->tdnuca->rrt_hits() + set->tdnuca->rrt_misses();
  const auto& cs = caches_->stats();
  Counters c;
  c.llc_hits = cs.llc_hits.value();
  c.bypass_reads = cs.bypass_reads.value();
  c.noc_messages = net_->messages();
  c.en = energy::energy_inputs(*caches_, *net_, *mcs_, rrt_lookups);
  c.nuca_total = static_cast<double>(cs.nuca_distance.total());
  c.nuca_weight = static_cast<double>(cs.nuca_distance.samples());
  c.miss_lat_total = static_cast<double>(cs.miss_latency.total());
  c.miss_lat_weight = static_cast<double>(cs.miss_latency.samples());
  for (const auto& core : cores_) {
    const vm::Mmu& m = core->mmu();
    c.tlb_hits += m.tlb_hits();
    c.tlb_misses += m.tlb_misses();
    c.tlb_shootdowns += m.tlb_shootdowns();
    c.l2_tlb_hits += m.l2_tlb_hits();
    c.walks += m.walks();
    c.walk_loads += m.walk_loads();
    c.walk_cycles += m.walk_cycles();
    c.isa_walk_cycles += m.charge_walk_cycles();
    c.psc_hits += m.psc_hits();
  }
  c.huge_fallbacks = page_table_.huge_fallbacks();
  return c;
}

Machine::Counters Machine::total() const {
  // Integer counts combine as u64 before any double conversion.
  Counters t = base_;
  const Counters f = fresh();
  each([](auto& a, const auto& b) { a += b; }, t, f);
  return t;
}

energy::EnergyBreakdown Machine::energy(
    const energy::EnergyParams& params) const {
  return energy::compute_energy(total().en, params);
}

void Machine::add_stats(stats::Registry& r) const {
  const Counters t = total();
  r.set("sim.events", static_cast<double>(base_events_ + eq_.executed()));
  r.set("l1.hits", static_cast<double>(t.en.l1_hits));
  r.set("l1.misses", static_cast<double>(t.en.l1_misses));
  r.set("llc.requests", static_cast<double>(t.en.llc_requests));
  r.set("llc.hits", static_cast<double>(t.llc_hits));
  r.set("llc.misses", static_cast<double>(t.en.llc_misses));
  r.set("llc.writebacks", static_cast<double>(t.en.llc_writebacks));
  r.set("llc.accesses",
        static_cast<double>(t.en.llc_requests + t.en.llc_writebacks));
  const double h = static_cast<double>(t.llc_hits);
  const double m = static_cast<double>(t.en.llc_misses);
  r.set("llc.hit_ratio", (h + m) > 0 ? h / (h + m) : 0.0);
  r.set("llc.bypass_reads", static_cast<double>(t.bypass_reads));
  r.set("nuca.mean_distance", mean(t.nuca_total, t.nuca_weight));
  r.set("l1.mean_miss_latency", mean(t.miss_lat_total, t.miss_lat_weight));
  r.set("noc.router_bytes", static_cast<double>(t.en.noc_router_bytes));
  r.set("noc.messages", static_cast<double>(t.noc_messages));
  r.set("dram.accesses", static_cast<double>(t.en.dram_accesses));
  // The page census is state, not a counter: mappings and the buddy pool
  // need no baseline.
  r.set("tlb.hits", static_cast<double>(t.tlb_hits));
  r.set("tlb.misses", static_cast<double>(t.tlb_misses));
  r.set("mem.tlb_shootdowns", static_cast<double>(t.tlb_shootdowns));
  r.set("mem.mapped_pages", static_cast<double>(page_table_.mapped_pages()));
  r.set("mem.frames_used", static_cast<double>(page_table_.frames_used()));
  if (cfg_.vm.enabled) {
    // tdn::vm keys appear only when the subsystem is on so legacy runs keep
    // the pre-vm key set.
    r.set("vm.walks", static_cast<double>(t.walks));
    r.set("vm.walk_loads", static_cast<double>(t.walk_loads));
    r.set("vm.walk_cycles", static_cast<double>(t.walk_cycles));
    r.set("vm.isa_walk_cycles", static_cast<double>(t.isa_walk_cycles));
    r.set("vm.psc_hits", static_cast<double>(t.psc_hits));
    r.set("vm.l2_tlb_hits", static_cast<double>(t.l2_tlb_hits));
    r.set("vm.pages_4k",
          static_cast<double>(page_table_.pages_of(vm::kPage4K)));
    r.set("vm.pages_2m",
          static_cast<double>(page_table_.pages_of(vm::kPage2M)));
    r.set("vm.pages_1g",
          static_cast<double>(page_table_.pages_of(vm::kPage1G)));
    r.set("vm.huge_fallbacks", static_cast<double>(t.huge_fallbacks));
    r.set("vm.punctured_frames",
          static_cast<double>(page_table_.punctured_frames()));
  }
  const auto e = energy::compute_energy(t.en);
  r.set("energy.llc_pj", e.llc_pj);
  r.set("energy.noc_pj", e.noc_pj);
  r.set("energy.dram_pj", e.dram_pj);
  r.set("energy.total_pj", e.total_pj());
}

void Machine::add_bank_stats(stats::Registry& r) const {
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
}

void Machine::add_core_stats(stats::Registry& r) const {
  Cycle flush_cycles = 0;
  for (const auto& c : cores_) {
    const vm::Mmu& m = c->mmu();
    const std::string p = "mem.core" + std::to_string(c->id());
    r.set(p + ".tlb_hits", static_cast<double>(m.tlb_hits()));
    r.set(p + ".tlb_misses", static_cast<double>(m.tlb_misses()));
    r.set(p + ".tlb_shootdowns", static_cast<double>(m.tlb_shootdowns()));
    flush_cycles += caches_->flush_busy_cycles(c->id());
  }
  r.set("flush.busy_cycles", static_cast<double>(flush_cycles));
}

void Machine::add_fault_stats(stats::Registry& r) const {
  if (!injector_) return;
  const fault::FaultCounters& fc = injector_->health().counters;
  r.set("fault.banks_failed", static_cast<double>(fc.banks_failed));
  r.set("fault.banks_slowed", static_cast<double>(fc.banks_slowed));
  r.set("fault.links_failed", static_cast<double>(fc.links_failed));
  r.set("fault.links_degraded", static_cast<double>(fc.links_degraded));
  r.set("fault.bounced_requests", static_cast<double>(fc.bounced_requests));
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

void Machine::cold_normalize() {
  caches_->ckpt_cold_reset();
  // Stale TLB entries can never *match* a future request's slice (slices
  // are generation-unique), but their residency would skew replacement —
  // the restored lineage's TLBs are empty, so the continuing one's must be.
  // In vm mode this also clears the paging-structure caches, matching the
  // freshly constructed walkers on the restored side.
  for (auto& c : cores_) c->mmu().ckpt_cold_reset();
  for (const auto& set : policies_) {
    if (set->tdnuca) set->tdnuca->ckpt_reset();
    if (set->rnuca) set->rnuca->ckpt_reset();
  }
  page_table_.ckpt_drop_mappings();
  // NoC link and DRAM busy horizons stay: at quiescence every link horizon
  // is <= now, and a DRAM stall reaching past the boundary is replayed on
  // restore (FaultInjector::arm_from), so both lineages see the same one.
}

void Machine::encode_baseline(ckpt::Encoder& e) const {
  // The totals are the cumulative machine history. The events field carries
  // a +1 compensation: the checkpoint event executing right now is counted
  // by the live queue only after its action returns, but it belongs to the
  // restored lineage's past.
  e.u64(base_events_ + eq_.executed() + 1);
  const Counters t = total();
  each([&e](const auto& v) { put(e, v); }, t);
  // Derived-PRNG position of the page allocator: a restored run's
  // first-touch allocations continue the exact fragmentation sample
  // sequence the snapshotted lineage would have drawn.
  const mem::PageTable::AllocState as = page_table_.alloc_state();
  e.u64(as.next_frame);
  e.u64(as.rng_state);
  e.u64_vec(as.skipped_frames);
  e.u64_vec(as.vm_words);
}

void Machine::decode_baseline(ckpt::Decoder& d) {
  base_events_ = d.u64();
  each([&d](auto& v) { get(d, v); }, base_);
  mem::PageTable::AllocState as;
  as.next_frame = d.u64();
  as.rng_state = d.u64();
  as.skipped_frames = d.u64_vec();
  as.vm_words = d.u64_vec();
  page_table_.set_alloc_state(as);
}

}  // namespace tdn::system
