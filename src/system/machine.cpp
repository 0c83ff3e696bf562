#include "system/machine.hpp"

#include <algorithm>
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
     << tdnuca.rrt_latency << '/' << hooks.decision_overhead << '/'
     << hooks.isa.per_rrt_slot << '/' << hooks.isa.issue_overhead << '/'
     << hooks.isa.flush_poll_overhead << '/' << network.dead_link_backoff
     << '/' << network.dead_link_max_retries
     << '/' << fault::FaultPlan::parse(fault.plan).canonical() << '/'
     << fault.seed << '/' << fault.rrt_scrub_delay << '/' << vm.canonical();
  const std::string s = os.str();
  return fnv1a64(s.data(), s.size());
}

namespace {

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

/// The energy model's inputs from the machine's counter totals.
energy::EnergyInputs energy_inputs(
    const std::map<std::string, std::uint64_t>& t) {
  energy::EnergyInputs in;
  in.llc_requests = t.at("llc.requests");
  in.llc_misses = t.at("llc.misses");
  in.llc_writebacks = t.at("llc.writebacks");
  in.flush_llc_lines = t.at("_flush.llc_lines");
  in.l1_hits = t.at("l1.hits");
  in.l1_misses = t.at("l1.misses");
  in.flush_l1_lines = t.at("_flush.l1_lines");
  in.noc_router_bytes = t.at("noc.router_bytes");
  in.dram_accesses = t.at("dram.accesses");
  const auto rrt = t.find("rrt.lookups");
  in.rrt_lookups = rrt == t.end() ? 0 : rrt->second;
  return in;
}

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
    set.rnuca = std::make_unique<nuca::RNucaPolicy>(mesh_, n, page_table_);
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

void Machine::build(nuca::TdNucaPolicy* rrt) {
  TDN_REQUIRE(!caches_, "machine already built");
  TDN_REQUIRE(!policies_.empty(), "add a policy set before building");
  const unsigned n = cfg_.num_cores();
  caches_ = std::make_unique<coherence::CoherentSystem>(
      eq_, *net_, mesh_, *mcs_, *policies_[0]->active, cfg_.hierarchy, n,
      rec_);
  cores_.reserve(n);
  std::vector<vm::Mmu*> mmus;
  for (unsigned i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<core::SimCore>(
        i, eq_, *caches_, page_table_, cfg_.core, cfg_.tlb, cfg_.vm));
    mmus.push_back(&cores_.back()->mmu());
  }
  // Every policy gets the cache operations, whether a core maps through it
  // or none does yet (a dry run's TD-NUCA, an adaptive slot's alternate).
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

Program Machine::make_program(PolicySet& set, const CoreMask& cores,
                              std::uint64_t stream) {
  nuca::TdNucaPolicy* td =
      set.active == set.rnuca.get() ? nullptr : set.tdnuca.get();
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
        *td, page_table_, variant, cfg_.hierarchy.l1.line_size, set.hooks,
        cfg_.hooks, rec_);
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

Machine::Totals Machine::counters() const {
  Totals t;
  const auto& cs = caches_->stats();
  t["sim.events"] = eq_.executed();
  t["l1.hits"] = cs.l1_hits.value();
  t["l1.misses"] = cs.l1_misses.value();
  t["llc.requests"] = cs.llc_requests.value();
  t["llc.hits"] = cs.llc_hits.value();
  t["llc.misses"] = cs.llc_misses.value();
  t["llc.writebacks"] = cs.llc_writebacks.value();
  t["llc.bypass_reads"] = cs.bypass_reads.value();
  t["noc.router_bytes"] = net_->total_router_bytes();
  t["noc.messages"] = net_->messages();
  t["dram.accesses"] = mcs_->total_accesses();
  t["cache.forced_unsafe_evictions"] = caches_->forced_unsafe_evictions();
  // Sums only derived keys read (energy, means).
  t["_flush.l1_lines"] = cs.flush_l1_lines.value();
  t["_flush.llc_lines"] = cs.flush_llc_lines.value();
  t["_nuca.distance_total"] = cs.nuca_distance.total();
  t["_nuca.distance_samples"] = cs.nuca_distance.samples();
  t["_l1.miss_latency_total"] = cs.miss_latency.total();
  t["_l1.miss_latency_samples"] = cs.miss_latency.samples();
  for (unsigned b = 0; b < cfg_.num_cores(); ++b) {
    const auto& bc = caches_->bank_counters(b);
    const std::string p = "llc.bank" + std::to_string(b);
    t[p + ".requests"] = bc.requests;
    t[p + ".hits"] = bc.hits;
    t[p + ".misses"] = bc.misses;
    t[p + ".writebacks"] = bc.writebacks;
  }
  for (unsigned a = 0; a < caches_->num_apps(); ++a) {
    const auto& ac = caches_->app_counters(a);
    const std::string p = "app" + std::to_string(a) + ".llc";
    t[p + ".requests"] = ac.llc_requests;
    t[p + ".hits"] = ac.llc_hits;
    t[p + ".misses"] = ac.llc_misses;
    t[p + ".writebacks"] = ac.llc_writebacks;
    t[p + ".bypass_reads"] = ac.bypass_reads;
  }
  // Per core: the MMU's translation counters, also summed over the cores,
  // and the flush engine's busy cycles.
  for (const auto& c : cores_) {
    const vm::Mmu& m = c->mmu();
    const std::string p = "mem.core" + std::to_string(c->id());
    t[p + ".tlb_hits"] = m.tlb_hits();
    t[p + ".tlb_misses"] = m.tlb_misses();
    t[p + ".tlb_shootdowns"] = m.tlb_shootdowns();
    t["tlb.hits"] += m.tlb_hits();
    t["tlb.misses"] += m.tlb_misses();
    t["mem.tlb_shootdowns"] += m.tlb_shootdowns();
    t["flush.busy_cycles"] += caches_->flush_busy_cycles(c->id());
    if (cfg_.vm.enabled) {
      t["vm.walks"] += m.walks();
      t["vm.walk_loads"] += m.walk_loads();
      t["vm.walk_cycles"] += m.walk_cycles();
      t["vm.isa_walk_cycles"] += m.charge_walk_cycles();
      t["vm.psc_hits"] += m.psc_hits();
      t["vm.l2_tlb_hits"] += m.l2_tlb_hits();
    }
  }
  if (cfg_.vm.enabled) t["vm.huge_fallbacks"] = page_table_.huge_fallbacks();
  // The program-side counters of every policy set. RRT occupancy pools
  // every policy's samples; for one policy it is Sampled::mean().
  for (const auto& set : policies_) {
    const nuca::TdNucaPolicy* td = set->tdnuca.get();
    if (td == nullptr) continue;
    t["rrt.lookups"] += td->rrt_hits() + td->rrt_misses();
    std::uint64_t& max_occupancy = t["rrt.max_occupancy"];
    max_occupancy = std::max<std::uint64_t>(max_occupancy,
                                            td->max_rrt_occupancy());
    t["_rrt.occupancy_total"] += td->occupancy().total();
    t["_rrt.occupancy_samples"] += td->occupancy().samples();
    const tdnuca::HookCounters& h = set->hooks;
    t["tdnuca.bypass_placements"] += h.bypass_placements;
    t["tdnuca.local_placements"] += h.local_placements;
    t["tdnuca.replicated_placements"] += h.replicated_placements;
    t["tdnuca.runtime_overhead_cycles"] += h.runtime_overhead_cycles;
    t["tdnuca.translate_pages"] += h.translate_pages;
    t["tdnuca.translate_cycles"] += h.translate_cycles;
  }
  // The plan's failures, slowdowns and DRAM stalls are not here: add_stats
  // reads them live.
  if (injector_) {
    const fault::FaultCounters& fc = injector_->health().counters;
    t["fault.bounced_requests"] = fc.bounced_requests;
    t["fault.dead_bank_writebacks"] = fc.dead_bank_writebacks;
    t["fault.evacuated_lines"] = fc.evacuated_lines;
    t["fault.evacuated_dirty"] = fc.evacuated_dirty;
    t["fault.rrt_entries_narrowed"] = fc.rrt_entries_narrowed;
    t["fault.rrt_entries_dropped"] = fc.rrt_entries_dropped;
    t["fault.rrt_corruptions"] = fc.rrt_corruptions;
    t["fault.rrt_evictions"] = fc.rrt_evictions;
    t["fault.rrt_scrubs"] = fc.rrt_scrubs;
    t["fault.noc_reroutes"] = fc.noc_reroutes;
    t["fault.noc_retries"] = fc.noc_retries;
  }
  return t;
}

Machine::Totals Machine::totals() const {
  Totals t = counters();
  // A restored run counts on from its lineage's totals; the RRT high-water
  // mark is the larger of the two.
  for (const auto& [key, base] : base_) {
    std::uint64_t& v = t.at(key);
    v = key == "rrt.max_occupancy" ? std::max(v, base) : v + base;
  }
  return t;
}

energy::EnergyBreakdown Machine::energy(
    const energy::EnergyParams& params) const {
  return energy::compute_energy(energy_inputs(totals()), params);
}

void Machine::add_stats(stats::Registry& r) const {
  const Totals t = totals();
  for (const auto& [key, v] : t)
    if (key[0] != '_') r.set(key, static_cast<double>(v));

  // --- derived from the totals -------------------------------------------
  r.set("llc.accesses",
        static_cast<double>(t.at("llc.requests") + t.at("llc.writebacks")));
  r.set("llc.hit_ratio", ratio(t.at("llc.hits"),
                               t.at("llc.hits") + t.at("llc.misses")));
  r.set("nuca.mean_distance", ratio(t.at("_nuca.distance_total"),
                                    t.at("_nuca.distance_samples")));
  r.set("l1.mean_miss_latency", ratio(t.at("_l1.miss_latency_total"),
                                      t.at("_l1.miss_latency_samples")));
  if (t.count("rrt.lookups") != 0) {
    r.set("rrt.mean_occupancy", ratio(t.at("_rrt.occupancy_total"),
                                      t.at("_rrt.occupancy_samples")));
  }
  for (unsigned a = 0; a < caches_->num_apps(); ++a) {
    const std::string p = "app" + std::to_string(a) + ".llc";
    const std::uint64_t hits = t.at(p + ".hits");
    r.set(p + ".hit_ratio", ratio(hits, hits + t.at(p + ".misses")));
  }
  const auto e = energy::compute_energy(energy_inputs(t));
  r.set("energy.llc_pj", e.llc_pj);
  r.set("energy.noc_pj", e.noc_pj);
  r.set("energy.dram_pj", e.dram_pj);
  r.set("energy.total_pj", e.total_pj());

  // --- read live, with no baseline ---------------------------------------
  r.set("mem.mapped_pages", static_cast<double>(page_table_.mapped_pages()));
  r.set("mem.frames_used", static_cast<double>(page_table_.frames_used()));
  if (cfg_.vm.enabled) {
    r.set("vm.pages_4k",
          static_cast<double>(page_table_.pages_of(vm::kPage4K)));
    r.set("vm.pages_2m",
          static_cast<double>(page_table_.pages_of(vm::kPage2M)));
    r.set("vm.punctured_frames",
          static_cast<double>(page_table_.punctured_frames()));
  }
  auto add = [&r](const std::string& key, std::uint64_t v) {
    r.set(key, r.get(key) + static_cast<double>(v));
  };
  for (const auto& set : policies_) {
    if (!set->rnuca) continue;
    const auto c = set->rnuca->census();
    add("rnuca.private_pages", c.private_pages);
    add("rnuca.shared_ro_pages", c.shared_ro_pages);
    add("rnuca.shared_pages", c.shared_pages);
  }
  if (injector_) {
    // A restored injector replays the plan up to the snapshot and counts
    // its failures, slowdowns and DRAM stalls again, so the live counts are
    // already the lineage's totals.
    const fault::FaultCounters& fc = injector_->health().counters;
    r.set("fault.banks_failed", static_cast<double>(fc.banks_failed));
    r.set("fault.banks_slowed", static_cast<double>(fc.banks_slowed));
    r.set("fault.links_failed", static_cast<double>(fc.links_failed));
    r.set("fault.links_degraded", static_cast<double>(fc.links_degraded));
    r.set("fault.dram_stalls", static_cast<double>(fc.dram_stalls));
    r.set("fault.healthy_banks",
          static_cast<double>(injector_->health().num_healthy()));
  }
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
  // The totals are the cumulative machine history. sim.events carries a +1
  // compensation: the checkpoint event executing right now is counted by
  // the live queue only after its action returns, but it belongs to the
  // restored lineage's past.
  Totals t = totals();
  ++t.at("sim.events");
  e.u64(t.size());
  for (const auto& [key, v] : t) {
    e.str(key);
    e.u64(v);
  }
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
  Totals base;
  for (std::uint64_t n = d.u64(); n > 0; --n) {
    std::string key = d.str();
    base[std::move(key)] = d.u64();
  }
  const Totals live = counters();
  if (base.size() != live.size() ||
      !std::equal(base.begin(), base.end(), live.begin(),
                  [](const auto& a, const auto& b) {
                    return a.first == b.first;
                  }))
    throw ckpt::SnapshotError(
        "snapshot counter set differs from the machine's");
  base_ = std::move(base);
  mem::PageTable::AllocState as;
  as.next_frame = d.u64();
  as.rng_state = d.u64();
  as.skipped_frames = d.u64_vec();
  as.vm_words = d.u64_vec();
  page_table_.set_alloc_state(as);
}

}  // namespace tdn::system
