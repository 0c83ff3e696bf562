#include "serve/serve_system.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "common/require.hpp"
#include "energy/energy_model.hpp"
#include "obs/recorder.hpp"

namespace tdn::serve {

ServeSystem::ServeSystem(system::SystemConfig cfg, multi::MixSpec tenants,
                         ServeOptions opts, obs::Recorder* rec)
    : cfg_(cfg), tenants_(std::move(tenants)), opts_(std::move(opts)),
      rec_(rec), mesh_(cfg.mesh_w, cfg.mesh_h),
      page_table_(cfg.page_table, cfg.vm) {
  const unsigned n = cfg_.num_cores();
  TDN_REQUIRE(opts_.enabled(), "ServeSystem needs an arrival spec");
  TDN_REQUIRE(opts_.slots >= 1, "at least one worker slot");
  TDN_REQUIRE(cfg_.policy != system::PolicyKind::TdNucaDryRun,
              "TdNucaDryRun is a single-program overhead study; "
              "not supported in serving mode");
  TDN_REQUIRE(!opts_.adaptive || cfg_.policy == system::PolicyKind::TdNuca,
              "adaptive switching starts from the TdNuca policy");
  if (opts_.adaptive) TDN_REQUIRE(opts_.epoch > 0, "adaptive needs an epoch");
  qos_.resize(tenants_.apps.size());
  epoch_admitted_.assign(tenants_.apps.size(), 0);
  slot_baseline_.resize(opts_.slots);

  net_ = std::make_unique<noc::Network>(mesh_, eq_, cfg_.network);

  // Memory controllers: identical placement to TiledSystem/MultiProgram.
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

  // --- worker slots: row-granular machine partitions ---------------------
  const std::vector<CoreMask> part =
      multi::row_partitions(cfg_.mesh_w, cfg_.mesh_h, opts_.slots);
  slots_.resize(opts_.slots);
  std::vector<nuca::MappingPolicy*> slot_policies;
  for (unsigned s = 0; s < opts_.slots; ++s) {
    Slot& slot = slots_[s];
    slot.cores = part[s];
    slot.banks = part[s];
    switch (cfg_.policy) {
      case system::PolicyKind::SNuca:
        slot.snuca = std::make_unique<nuca::SNucaPolicy>(
            n, cfg_.hierarchy.l1.line_size);
        slot.policy = slot.snuca.get();
        break;
      case system::PolicyKind::RNuca:
        slot.rnuca = std::make_unique<nuca::RNucaPolicy>(mesh_, n, page_table_,
                                                         cfg_.rnuca);
        slot.policy = slot.rnuca.get();
        break;
      case system::PolicyKind::TdNuca:
      case system::PolicyKind::TdNucaBypassOnly: {
        auto td_cfg = cfg_.tdnuca;
        td_cfg.bypass_only =
            (cfg_.policy == system::PolicyKind::TdNucaBypassOnly);
        slot.tdnuca = std::make_unique<nuca::TdNucaPolicy>(mesh_, n, td_cfg);
        slot.policy = slot.tdnuca.get();
        // Adaptive slots carry the alternate policy too; dispatch picks.
        if (opts_.adaptive)
          slot.rnuca = std::make_unique<nuca::RNucaPolicy>(
              mesh_, n, page_table_, cfg_.rnuca);
        break;
      }
      case system::PolicyKind::TdNucaDryRun:
        break;  // rejected above
    }
    if (slot.tdnuca) slot.tdnuca->set_partition(slot.banks, slot.cores);
    if (slot.rnuca) slot.rnuca->set_partition(slot.banks, slot.cores);
    if (slot.snuca) slot.snuca->set_partition(slot.banks, slot.cores);
    slot_policies.push_back(slot.policy);
  }

  // Wrap mode: request address-space slice slot + slots*generation folds
  // back onto its worker slot's active policy.
  router_ = std::make_unique<multi::AppRouter>(slot_policies, /*wrap=*/true);
  caches_ = std::make_unique<coherence::CoherentSystem>(
      eq_, *net_, mesh_, *mcs_, *router_, cfg_.hierarchy, n, rec_);

  // Per-slot LLC accounting (attribution is by requester core, so slices
  // beyond the slot count never index the view).
  coherence::CoherentSystem::AppView view;
  view.num_apps = opts_.slots;
  view.core_app.resize(n);
  const unsigned rows_per_slot = cfg_.mesh_h / opts_.slots;
  for (unsigned c = 0; c < n; ++c)
    view.core_app[c] =
        static_cast<std::uint8_t>(c / (rows_per_slot * cfg_.mesh_w));
  caches_->set_app_view(std::move(view));

  // --- cores ------------------------------------------------------------
  cores_.reserve(n);
  std::vector<vm::Mmu*> mmus;
  for (unsigned i = 0; i < n; ++i) {
    cores_.push_back(std::make_unique<core::SimCore>(
        i, eq_, *caches_, page_table_, cfg_.core, cfg_.tlb, cfg_.vm));
    mmus.push_back(&cores_.back()->mmu());
  }
  for (Slot& slot : slots_) {
    if (slot.rnuca) slot.rnuca->set_mmus(mmus);
    slot.cores.for_each(
        [&](CoreId c) { slot.core_ptrs.push_back(cores_[c].get()); });
  }

  // --- fault injection --------------------------------------------------
  if (!cfg_.fault.plan.empty()) {
    fault::FaultInjector::Targets t;
    t.eq = &eq_;
    t.mesh = &mesh_;
    t.net = net_.get();
    t.caches = caches_.get();
    t.mcs = mcs_.get();
    t.tdnuca = nullptr;  // per-slot RRTs; in-map health guards suffice
    t.rec = rec_;
    injector_ = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(cfg_.fault.plan), cfg_.fault, t, n,
        cfg_.hierarchy.l1.line_size);
    health_ = &injector_->health();
    for (Slot& slot : slots_) {
      if (slot.snuca) slot.snuca->set_health(health_);
      if (slot.rnuca) slot.rnuca->set_health(health_);
      if (slot.tdnuca) slot.tdnuca->set_health(health_);
    }
    caches_->set_health(health_);
    net_->set_health(health_);
  }

  if (rec_ != nullptr) register_observability();
}

ServeSystem::~ServeSystem() = default;

void ServeSystem::build(const workloads::WorkloadParams& params) {
  TDN_REQUIRE(!built_, "build() already called");
  built_ = true;
  params_ = params;
  const ArrivalSpec spec = ArrivalSpec::parse(opts_.arrival);
  const std::vector<unsigned> weights =
      parse_weights(opts_.weights, num_tenants());
  const std::vector<Arrival> trace =
      spec.generate(opts_.horizon, weights, params.seed);
  requests_.reserve(trace.size());
  for (const Arrival& a : trace) {
    Request r;
    r.tenant = a.tenant;
    r.arrive = a.cycle;
    requests_.push_back(r);
  }
}

Cycle ServeSystem::run(Cycle cycle_limit) {
  TDN_REQUIRE(built_, "call build() before run()");
  TDN_REQUIRE(!ran_, "run() already called");
  ran_ = true;
  // Restored lineage: jump the fresh queue's clock to the quiescent point
  // first, so everything below schedules at absolute post-restore cycles.
  if (resumed_) eq_.fast_forward(resume_cycle_);
  if (rec_ != nullptr) rec_->arm(eq_);
  if (injector_) {
    // Scheduling order is load-bearing for same-cycle ties: plan events get
    // the lowest sequence numbers (before arrivals), exactly as in the
    // original lineage, so a fault and an arrival on the same cycle keep
    // their relative order across a restore.
    if (resumed_)
      injector_->arm_from(resume_cycle_);
    else
      injector_->arm();
  }
  const std::size_t first = resumed_ ? static_cast<std::size_t>(cursor_) : 0;
  arrivals_remaining_ = requests_.size() - first;
  for (std::size_t i = first; i < requests_.size(); ++i) {
    const unsigned rid = static_cast<unsigned>(i);
    eq_.schedule_at(requests_[i].arrive, [this, rid] { on_arrival(rid); });
  }
  // The mix sampler rides *real* events: it mutates future scheduling, so
  // it must be part of the simulation proper (obs observer events must
  // never change behavior). The chain ends itself once the system drains.
  // Restored lineages re-arm both periodic chains at the exact absolute
  // cycles recorded in the snapshot (a tick can be pending at the fold
  // cycle itself when settle_grace exceeds the epoch) — and in this order,
  // after arrivals and before the re-dispatch pump below, reproducing the
  // original lineage's sequence-number tie order.
  if (!resumed_) {
    if (opts_.adaptive && !requests_.empty()) {
      tick_alive_ = true;
      next_tick_at_ = opts_.epoch;
      eq_.schedule_in(opts_.epoch, [this] { epoch_tick(); });
    }
    if (ckpt_active() && !opts_.adaptive && !requests_.empty()) {
      marker_alive_ = true;
      next_marker_at_ = ckpt_.every;
      eq_.schedule_at(ckpt_.every, [this] { ckpt_marker(); });
    }
  } else {
    if (tick_alive_)
      eq_.schedule_at(next_tick_at_, [this] { epoch_tick(); });
    if (marker_alive_)
      eq_.schedule_at(next_marker_at_, [this] { ckpt_marker(); });
  }
  if (!resumed_ && requests_.empty()) completed_ = true;
  if (resumed_) {
    // The snapshot captured the pending queue *before* the post-fold pump;
    // the original lineage pumped inside the fold event, we pump here —
    // same cycle, same dispatch order, same derived seeds.
    if (arrivals_remaining_ == 0 && pending_.empty() &&
        done_ + shed_ == offered_)
      completed_ = true;
    pump();
  }
  if (cfg_.fault.watchdog_budget > 0) {
    watchdog_ =
        std::make_unique<fault::Watchdog>(eq_, cfg_.fault.watchdog_budget);
    // Witness: memory-system traffic plus admission outcomes. Any of these
    // moving within a budget window is forward progress; a checkpoint fold
    // resets the cache counters, which the inequality test also counts as
    // progress (a fold IS progress).
    watchdog_->set_progress([this] {
      const auto& cs = caches_->stats();
      return cs.l1_hits.value() + cs.l1_misses.value() + offered_ + done_ +
             shed_;
    });
    watchdog_->add_diagnostic("serve", [this] {
      std::string s = "offered=" + std::to_string(offered_) +
                      " done=" + std::to_string(done_) +
                      " shed=" + std::to_string(shed_) +
                      " pending=" + std::to_string(pending_.size()) +
                      " draining=" + std::to_string(draining_ ? 1 : 0);
      return s;
    });
    watchdog_->add_diagnostic("checkpoint", [this] {
      if (!ckpt_active()) return std::string("disabled");
      return "dir=" + (ckpt_.dir.empty() ? std::string("<none>") : ckpt_.dir) +
             " written=" + std::to_string(snapshots_written_) +
             " (resume the newest snapshot with ckpt.resume=true)";
    });
    watchdog_->arm();
  }
  eq_.run_until(cycle_limit);
  TDN_REQUIRE(completed_,
              "serving drained without completing every admitted request");
  graveyard_.clear();  // queue is empty: no event references retired state
  return makespan_;
}

bool ServeSystem::any_busy() const noexcept {
  for (const Slot& slot : slots_)
    if (slot.busy) return true;
  return false;
}

void ServeSystem::on_arrival(unsigned rid) {
  poll_interrupt();
  --arrivals_remaining_;
  Request& r = requests_[rid];
  ++offered_;
  ++qos_[r.tenant].offered;
  // While draining toward a checkpoint boundary no new request may start
  // (quiescence means idle slots); arrivals queue (or shed) instead. This
  // admission detour is simulated checkpoint cost, identical in the
  // original and every restored lineage — the cadence is fingerprinted.
  if (!draining_) {
    for (unsigned s = 0; s < slots_.size(); ++s) {
      if (!slots_[s].busy) {
        ++epoch_admitted_[r.tenant];
        dispatch(s, rid);
        return;
      }
    }
  }
  if (pending_.size() < opts_.max_pending) {
    ++epoch_admitted_[r.tenant];
    pending_.push_back(rid);
    queue_max_depth_ = std::max(queue_max_depth_, pending_.size());
    return;
  }
  if (opts_.admission == AdmissionPolicy::DropOldest && !pending_.empty()) {
    // Trade the oldest queued request (its deadline is the most blown) for
    // the newcomer; the queue depth is unchanged.
    const unsigned victim = pending_.front();
    pending_.pop_front();
    shed_request(victim);
    ++epoch_admitted_[r.tenant];
    pending_.push_back(rid);
    return;
  }
  shed_request(rid);
}

void ServeSystem::shed_request(unsigned rid) {
  Request& r = requests_[rid];
  r.shed = true;
  ++shed_;
  ++qos_[r.tenant].shed;
  if (rec_ != nullptr && rec_->trace_on()) {
    rec_->instant(obs::Recorder::kServeTrackBase + opts_.slots, "serve",
                  "shed " + tenants_.apps[r.tenant] + "#" +
                      std::to_string(rid),
                  "\"tenant\":" + std::to_string(r.tenant));
  }
  if (arrivals_remaining_ == 0 && done_ + shed_ == offered_)
    completed_ = true;
}

void ServeSystem::dispatch(unsigned s, unsigned rid) {
  Slot& slot = slots_[s];
  Request& r = requests_[rid];
  TDN_REQUIRE(!slot.busy, "dispatch onto a busy slot");
  slot.busy = true;
  r.slot = s;
  r.dispatch = eq_.now();

  auto live = std::make_unique<Live>();

  // Fresh kAppStride-aligned address-space slice per request: consecutive
  // requests on a slot (and an adaptive policy switch between them) can
  // never alias, and stale RRT / page-classification entries from the
  // previous request never match a new address.
  const Addr base =
      mem::kHeapBase + static_cast<Addr>(s + opts_.slots * slot.generation) *
                           multi::kAppStride;
  live->vspace = std::make_unique<mem::VirtualSpace>(base);

  nuca::MappingPolicy* pol = slot.policy;
  if (opts_.adaptive)
    pol = use_tdnuca_ ? static_cast<nuca::MappingPolicy*>(slot.tdnuca.get())
                      : slot.rnuca.get();
  router_->set_policy(s, pol);

  switch (cfg_.scheduler) {
    case system::SchedulerKind::Fifo:
      live->scheduler = std::make_unique<runtime::FifoScheduler>();
      break;
    case system::SchedulerKind::Affinity:
      live->scheduler = std::make_unique<runtime::AffinityScheduler>();
      break;
  }

  runtime::RuntimeHooks* hooks = nullptr;
  if (pol == static_cast<nuca::MappingPolicy*>(slot.tdnuca.get()) &&
      slot.tdnuca) {
    auto hooks_cfg = cfg_.hooks;
    hooks_cfg.line_size = cfg_.hierarchy.l1.line_size;
    live->hooks_td = std::make_unique<tdnuca::TdNucaRuntimeHooks>(
        *slot.tdnuca, page_table_, cfg_.num_cores(), hooks_cfg, rec_);
    if (health_ != nullptr) live->hooks_td->set_health(health_);
    hooks = live->hooks_td.get();
  } else {
    live->hooks_base = std::make_unique<runtime::RuntimeHooks>();
    hooks = live->hooks_base.get();
  }

  // Distinct jitter stream per request id: back-to-back requests on a slot
  // must not mirror each other's dispatch noise.
  auto rt_cfg = cfg_.runtime;
  rt_cfg.jitter_seed += 0x9E3779B97F4A7C15ull * (rid + 1);
  live->rt = std::make_unique<runtime::RuntimeSystem>(
      eq_, slot.core_ptrs, *live->scheduler, *hooks, rt_cfg, rec_);
  if (live->hooks_td) live->hooks_td->set_runtime(live->rt.get());
  if (auto* aff =
          dynamic_cast<runtime::AffinityScheduler*>(live->scheduler.get()))
    aff->set_tasks(&live->rt->tasks());

  workloads::WorkloadParams p = params_;
  p.scale = opts_.request_scale;
  // Decorrelate repeated requests of one tenant's workload.
  p.seed = params_.seed + 1000003ull * (rid + 1);
  live->workload = workloads::make_workload(tenants_.apps[r.tenant], p);
  live->workload->build(workloads::BuildContext{*live->vspace, *live->rt});
  TDN_REQUIRE(live->vspace->footprint() < multi::kAppStride,
              "request footprint overflows its address-space slice");

  slot.live = std::move(live);
  slot.live->rt->run([this, s, rid] { on_complete(s, rid); });
}

void ServeSystem::on_complete(unsigned s, unsigned rid) {
  Slot& slot = slots_[s];
  Request& r = requests_[rid];
  r.complete = eq_.now();
  r.done = true;
  ++done_;
  tasks_total_ += slot.live->rt->tasks_completed();
  makespan_ = std::max(makespan_, r.complete);

  const Cycle sojourn = r.complete - r.arrive;
  const Cycle waited = r.dispatch - r.arrive;
  const Cycle service = r.complete - r.dispatch;
  sojourn_.add(sojourn);
  queue_wait_.add(waited);
  service_.add(service);
  TenantQos& q = qos_[r.tenant];
  ++q.completed;
  q.sojourn.add(sojourn);
  q.queue_wait.add(waited);
  q.service.add(service);

  if (rec_ != nullptr && rec_->trace_on()) {
    rec_->span(obs::Recorder::kServeTrackBase + s, "serve",
               tenants_.apps[r.tenant] + "#" + std::to_string(rid), r.dispatch,
               service,
               "\"tenant\":" + std::to_string(r.tenant) + ",\"queue_wait\":" +
                   std::to_string(waited) + ",\"sojourn\":" +
                   std::to_string(sojourn));
  }

  // Deferred teardown: we are inside this runtime's own completion path,
  // and the TD-NUCA hooks' end-of-task flush joiners can still fire after
  // the last task completes — so retired request state must outlive every
  // event that references it. The graveyard holds it until run() drains
  // the whole queue; the zero-delay pump event only re-dispatches.
  slot.busy = false;
  ++slot.generation;
  graveyard_.push_back(std::move(slot.live));
  eq_.schedule_in(0, [this] { pump(); });

  if (arrivals_remaining_ == 0 && done_ + shed_ == offered_)
    completed_ = true;
  poll_interrupt();
}

void ServeSystem::pump() {
  if (draining_) return;  // refills resume at the fold
  while (!pending_.empty()) {
    int free_slot = -1;
    for (unsigned s = 0; s < slots_.size(); ++s)
      if (!slots_[s].busy) {
        free_slot = static_cast<int>(s);
        break;
      }
    if (free_slot < 0) break;
    const unsigned rid = pending_.front();
    pending_.pop_front();
    dispatch(static_cast<unsigned>(free_slot), rid);
  }
}

void ServeSystem::epoch_tick() {
  tick_alive_ = false;
  std::uint64_t total = 0;
  for (std::uint64_t c : epoch_admitted_) total += c;
  if (total > 0) {
    const double share0 = static_cast<double>(epoch_admitted_[0]) /
                          static_cast<double>(total);
    const bool want_tdnuca = share0 >= opts_.switch_threshold;
    if (want_tdnuca != use_tdnuca_) {
      use_tdnuca_ = want_tdnuca;
      ++policy_switches_;
      if (rec_ != nullptr && rec_->trace_on()) {
        rec_->instant(obs::Recorder::kServeTrackBase + opts_.slots, "serve",
                      use_tdnuca_ ? "switch->tdnuca" : "switch->rnuca");
      }
    }
    std::fill(epoch_admitted_.begin(), epoch_admitted_.end(), 0);
  }
  if (arrivals_remaining_ > 0 || !pending_.empty() || any_busy()) {
    tick_alive_ = true;
    next_tick_at_ = eq_.now() + opts_.epoch;
    eq_.schedule_in(opts_.epoch, [this] { epoch_tick(); });
  }
  // Adaptive + checkpointing: the cadence is a multiple of the epoch
  // (enforced by set_checkpoint), so the drain rides this chain — there is
  // never a separate marker event to race the tick at the same cycle.
  if (ckpt_active() && opts_.adaptive && tick_alive_ && !draining_ &&
      eq_.now() > 0 && eq_.now() % ckpt_.every == 0)
    begin_drain(/*emergency=*/false);
  poll_interrupt();
}

void ServeSystem::register_observability() {
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
  for (unsigned s = 0; s < opts_.slots; ++s)
    rec_->set_track_name(obs::Recorder::kServeTrackBase + s,
                         "serve slot " + std::to_string(s));
  rec_->set_track_name(obs::Recorder::kServeTrackBase + opts_.slots,
                       "serve admission");
  if (injector_) rec_->set_track_name(obs::Recorder::kFaultTrack, "faults");

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

  // --- serving series: the load/occupancy picture over time --------------
  rec_->add_series("serve.pending_depth",
                   [this] { return static_cast<double>(pending_.size()); });
  rec_->add_series("serve.busy_slots", [this] {
    unsigned busy = 0;
    for (const Slot& slot : slots_)
      if (slot.busy) ++busy;
    return static_cast<double>(busy);
  });
  rec_->add_series("serve.offered",
                   [this] { return static_cast<double>(offered_); });
  rec_->add_series("serve.shed",
                   [this] { return static_cast<double>(shed_); });
  rec_->add_series("serve.completed",
                   [this] { return static_cast<double>(done_); });

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
  rec_->add_heatmap("noc_router_bytes", w, h, [this, n] {
    std::vector<double> v(n);
    for (unsigned t = 0; t < n; ++t)
      v[t] = static_cast<double>(net_->router_bytes_at(t));
    return v;
  });
}

// --- checkpoint machinery (tdn::ckpt) --------------------------------------

namespace {

// v2: AllocState grew vm_words (tdn::vm buddy-allocator state; empty for
// legacy snapshots, but the field is always present in the encoding).
constexpr std::uint32_t kPayloadVersion = 2;

/// Sparse histogram encoding: (count, sum, min, max) then the nonzero
/// buckets as (index, count) pairs. Bit-exact: restore() reproduces every
/// percentile walk identically.
void encode_hist(ckpt::Encoder& e, const obs::LatencyHistogram& h) {
  e.u64(h.count());
  e.u64(h.sum());
  e.u64(h.min());
  e.u64(h.max());
  std::uint64_t nonzero = 0;
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i)
    if (h.bucket_count(i) != 0) ++nonzero;
  e.u64(nonzero);
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i) {
    if (h.bucket_count(i) != 0) {
      e.u64(i);
      e.u64(h.bucket_count(i));
    }
  }
}

void decode_hist(ckpt::Decoder& d, obs::LatencyHistogram& h) {
  const std::uint64_t count = d.u64();
  const Cycle sum = d.u64();
  const Cycle mn = d.u64();
  const Cycle mx = d.u64();
  std::array<std::uint64_t, obs::LatencyHistogram::kBuckets> counts{};
  const std::uint64_t nonzero = d.u64();
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k < nonzero; ++k) {
    const std::uint64_t idx = d.u64();
    if (idx >= obs::LatencyHistogram::kBuckets)
      throw ckpt::SnapshotError("snapshot histogram bucket out of range");
    counts[static_cast<std::size_t>(idx)] = d.u64();
    total += counts[static_cast<std::size_t>(idx)];
  }
  if (total != count)
    throw ckpt::SnapshotError("snapshot histogram bucket/count mismatch");
  h.restore(counts, count, sum, mn, mx);
}

}  // namespace

void ServeSystem::set_checkpoint(const ckpt::Options& opts,
                                 std::uint64_t config_fingerprint) {
  TDN_REQUIRE(!ran_, "set_checkpoint must precede run()");
  TDN_REQUIRE(opts.enabled(), "checkpointing needs a cadence (every > 0)");
  TDN_REQUIRE(opts.settle_grace >= 1, "settle grace must be >= 1 cycle");
  TDN_REQUIRE(!opts_.adaptive || opts.every % opts_.epoch == 0,
              "adaptive serving: checkpoint cadence must be a multiple of "
              "the adaptation epoch (the drain rides the epoch-tick chain, "
              "so tick-vs-marker tie order can never diverge on restore)");
  ckpt_ = opts;
  ckpt_fingerprint_ = config_fingerprint;
}

void ServeSystem::poll_interrupt() {
  if (!ckpt_active() || draining_ || !ckpt::interrupt_requested()) return;
  begin_drain(/*emergency=*/true);
}

void ServeSystem::begin_drain(bool emergency) {
  TDN_ASSERT(!draining_);
  draining_ = true;
  emergency_ = emergency;
  eq_.schedule_in(ckpt_.settle_grace, [this] { ckpt_settle(); });
}

void ServeSystem::ckpt_marker() {
  marker_alive_ = false;
  poll_interrupt();  // an emergency drain outranks the cadence one
  if (arrivals_remaining_ == 0 && pending_.empty() && !any_busy() &&
      !draining_)
    return;  // served everything: the chain dies with the system
  marker_alive_ = true;
  next_marker_at_ = eq_.now() + ckpt_.every;
  eq_.schedule_at(next_marker_at_, [this] { ckpt_marker(); });
  if (!draining_) begin_drain(/*emergency=*/false);
}

void ServeSystem::ckpt_settle() {
  TDN_ASSERT(draining_);
  if (!quiescent()) {
    eq_.schedule_in(ckpt_.settle_grace, [this] { ckpt_settle(); });
    return;
  }
  ckpt_fold();
}

bool ServeSystem::quiescent() const {
  if (any_busy()) return false;
  // Exact event census: every pending *real* event must be expected future
  // work. In-flight coherence/NoC/DRAM events, retired runtimes' trailing
  // flush joiners, fault-recovery flushes and zero-delay pump events all
  // make real_pending exceed this count until they finish draining.
  std::size_t expected = static_cast<std::size_t>(arrivals_remaining_);
  if (tick_alive_) ++expected;
  if (marker_alive_) ++expected;
  if (injector_) expected += injector_->plan_pending();
  return eq_.real_pending() == expected;
}

void ServeSystem::ckpt_fold() {
  TDN_ASSERT(draining_ && quiescent());
  const Cycle cyc = eq_.now();
  fold_machine_counters();
  cold_normalize();
  // Quiescence proves no event references retired request state: dropping
  // the graveyard here (in both lineages) bounds a long run's memory.
  graveyard_.clear();
  const std::string payload = encode_snapshot();
  draining_ = false;
  if (!ckpt_.dir.empty()) {
    if (ckpt::write_snapshot(ckpt_, ckpt_fingerprint_, cyc, payload,
                             emergency_))
      ++snapshots_written_;
  }
  if (emergency_) {
    emergency_ = false;
    throw ckpt::InterruptedError(
        std::string("serving interrupted at cycle ") + std::to_string(cyc) +
        (ckpt_.dir.empty() ? " (no checkpoint directory configured)"
                           : " (emergency snapshot published)"));
  }
  pump();  // the restored lineage pumps in run() at this same cycle
}

void ServeSystem::fold_machine_counters() {
  const auto& cs = caches_->stats();
  baseline_.en.l1_hits += cs.l1_hits.value();
  baseline_.en.l1_misses += cs.l1_misses.value();
  baseline_.en.flush_l1_lines += cs.flush_l1_lines.value();
  baseline_.en.llc_requests += cs.llc_requests.value();
  baseline_.en.llc_misses += cs.llc_misses.value();
  baseline_.en.llc_writebacks += cs.llc_writebacks.value();
  baseline_.en.flush_llc_lines += cs.flush_llc_lines.value();
  baseline_.en.noc_router_bytes += net_->total_router_bytes();
  baseline_.en.dram_accesses += mcs_->total_accesses();
  baseline_.llc_hits += cs.llc_hits.value();
  baseline_.bypass_reads += cs.bypass_reads.value();
  baseline_.noc_messages += net_->messages();
  baseline_.nuca_total += cs.nuca_distance.total();
  baseline_.nuca_weight += cs.nuca_distance.weight();
  baseline_.miss_lat_total += cs.miss_latency.total();
  baseline_.miss_lat_weight += cs.miss_latency.weight();
  for (unsigned s = 0; s < opts_.slots; ++s) {
    if (slots_[s].tdnuca)
      baseline_.en.rrt_lookups +=
          slots_[s].tdnuca->rrt_hits() + slots_[s].tdnuca->rrt_misses();
    const auto& ac = caches_->app_counters(s);
    SlotBaseline& sb = slot_baseline_[s];
    sb.llc_requests += ac.llc_requests;
    sb.llc_hits += ac.llc_hits;
    sb.llc_misses += ac.llc_misses;
    sb.llc_writebacks += ac.llc_writebacks;
    sb.bypass_reads += ac.bypass_reads;
  }
  for (auto& core : cores_) {
    vm::Mmu& mmu = core->mmu();
    baseline_.tlb_hits += mmu.tlb_hits();
    baseline_.tlb_misses += mmu.tlb_misses();
    baseline_.tlb_shootdowns += mmu.tlb_shootdowns();
    baseline_.l2_tlb_hits += mmu.l2_tlb_hits();
    baseline_.walks += mmu.walks();
    baseline_.walk_loads += mmu.walk_loads();
    baseline_.walk_cycles += mmu.walk_cycles();
    baseline_.isa_walk_cycles += mmu.charge_walk_cycles();
    baseline_.psc_hits += mmu.psc_hits();
    mmu.ckpt_reset_stats();
  }
  baseline_.huge_fallbacks += page_table_.huge_fallbacks();
  page_table_.ckpt_reset_stats();
  caches_->ckpt_reset_stats();
  net_->ckpt_reset_stats();
  for (unsigned m = 0; m < mcs_->count(); ++m) mcs_->mc(m).ckpt_reset_stats();
}

void ServeSystem::cold_normalize() {
  caches_->ckpt_cold_reset();
  // Stale TLB entries can never *match* a future request's slice (slices
  // are generation-unique), but their residency would skew replacement —
  // the restored lineage's TLBs are empty, so the continuing one's must be.
  // In vm mode this also clears the paging-structure caches, matching the
  // freshly constructed walkers on the restored side.
  for (auto& core : cores_) core->mmu().ckpt_cold_reset();
  for (Slot& slot : slots_) {
    if (slot.tdnuca) slot.tdnuca->ckpt_reset();
    if (slot.rnuca) slot.rnuca->ckpt_reset();
  }
  page_table_.ckpt_drop_mappings();
}

std::string ServeSystem::encode_snapshot() const {
  ckpt::Encoder e;
  e.u32(kPayloadVersion);
  e.u64(requests_.size() - arrivals_remaining_);  // arrival cursor
  e.u64(pending_.size());
  for (unsigned rid : pending_) e.u64(rid);
  e.u64(offered_);
  e.u64(shed_);
  e.u64(done_);
  e.u64(tasks_total_);
  e.u64(queue_max_depth_);
  e.u64(makespan_);
  e.u64(policy_switches_);
  e.u8(use_tdnuca_ ? 1 : 0);
  // Periodic chains: the *absolute* pending cycle (0 = chain dead). A tick
  // can be pending at the fold cycle itself (settle_grace > epoch), so this
  // must be recorded, never re-derived from the cadence.
  e.u64(tick_alive_ ? next_tick_at_ : 0);
  e.u64(marker_alive_ ? next_marker_at_ : 0);
  e.u64_vec(epoch_admitted_);
  e.u64(qos_.size());
  for (const TenantQos& q : qos_) {
    e.u64(q.offered);
    e.u64(q.shed);
    e.u64(q.completed);
    encode_hist(e, q.sojourn);
    encode_hist(e, q.queue_wait);
    encode_hist(e, q.service);
  }
  encode_hist(e, sojourn_);
  encode_hist(e, queue_wait_);
  encode_hist(e, service_);
  e.u64(slots_.size());
  for (unsigned s = 0; s < slots_.size(); ++s) {
    e.u64(slots_[s].generation);
    const SlotBaseline& sb = slot_baseline_[s];
    e.u64(sb.llc_requests);
    e.u64(sb.llc_hits);
    e.u64(sb.llc_misses);
    e.u64(sb.llc_writebacks);
    e.u64(sb.bypass_reads);
  }
  // Machine baseline (fresh counters were just folded and reset, so the
  // baseline alone is the cumulative machine history). The events field
  // carries a +1 compensation: the fold event executing right now is
  // counted by the live queue only after its action returns, but it
  // belongs to the restored lineage's past.
  e.u64(baseline_.events + eq_.executed() + 1);
  e.u64(baseline_.llc_hits);
  e.u64(baseline_.bypass_reads);
  e.u64(baseline_.noc_messages);
  e.u64(baseline_.en.llc_requests);
  e.u64(baseline_.en.llc_misses);
  e.u64(baseline_.en.llc_writebacks);
  e.u64(baseline_.en.flush_llc_lines);
  e.u64(baseline_.en.l1_hits);
  e.u64(baseline_.en.l1_misses);
  e.u64(baseline_.en.flush_l1_lines);
  e.u64(baseline_.en.noc_router_bytes);
  e.u64(baseline_.en.dram_accesses);
  e.u64(baseline_.en.rrt_lookups);
  e.f64(baseline_.nuca_total);
  e.f64(baseline_.nuca_weight);
  e.f64(baseline_.miss_lat_total);
  e.f64(baseline_.miss_lat_weight);
  // Translation baseline (payload v2; the cores' Mmu counters were folded
  // and reset alongside the machine counters above).
  e.u64(baseline_.tlb_hits);
  e.u64(baseline_.tlb_misses);
  e.u64(baseline_.tlb_shootdowns);
  e.u64(baseline_.l2_tlb_hits);
  e.u64(baseline_.walks);
  e.u64(baseline_.walk_loads);
  e.u64(baseline_.walk_cycles);
  e.u64(baseline_.isa_walk_cycles);
  e.u64(baseline_.psc_hits);
  e.u64(baseline_.huge_fallbacks);
  // Derived-PRNG position of the page allocator: a restored run's
  // first-touch allocations continue the exact fragmentation sample
  // sequence the snapshotted lineage would have drawn.
  const mem::PageTable::AllocState as = page_table_.alloc_state();
  e.u64(as.next_frame);
  e.u64(as.rng_state);
  e.u64_vec(as.skipped_frames);
  e.u64_vec(as.vm_words);
  return e.take();
}

void ServeSystem::resume_from(const ckpt::Snapshot& snap) {
  TDN_REQUIRE(built_, "call build() before resume_from()");
  TDN_REQUIRE(!ran_, "resume_from must precede run()");
  TDN_REQUIRE(ckpt_active(), "call set_checkpoint() before resume_from()");
  TDN_REQUIRE(snap.config_fingerprint == ckpt_fingerprint_,
              "snapshot belongs to a different configuration");
  ckpt::Decoder d(snap.payload);
  if (d.u32() != kPayloadVersion)
    throw ckpt::SnapshotError("unsupported snapshot payload version");
  cursor_ = d.u64();
  if (cursor_ > requests_.size())
    throw ckpt::SnapshotError("snapshot cursor beyond the regenerated trace");
  // The cursor must split the regenerated trace exactly at the snapshot
  // cycle — anything else means the trace (seed/spec) drifted.
  if (cursor_ > 0 && requests_[cursor_ - 1].arrive > snap.cycle)
    throw ckpt::SnapshotError("snapshot cursor disagrees with the trace");
  if (cursor_ < requests_.size() && requests_[cursor_].arrive <= snap.cycle)
    throw ckpt::SnapshotError("snapshot cursor disagrees with the trace");
  const std::uint64_t npend = d.u64();
  pending_.clear();
  for (std::uint64_t i = 0; i < npend; ++i) {
    const std::uint64_t rid = d.u64();
    if (rid >= cursor_)
      throw ckpt::SnapshotError("snapshot pending request never arrived");
    pending_.push_back(static_cast<unsigned>(rid));
  }
  offered_ = d.u64();
  shed_ = d.u64();
  done_ = d.u64();
  tasks_total_ = d.u64();
  queue_max_depth_ = static_cast<std::size_t>(d.u64());
  makespan_ = d.u64();
  policy_switches_ = d.u64();
  use_tdnuca_ = d.u8() != 0;
  next_tick_at_ = d.u64();
  tick_alive_ = next_tick_at_ != 0;
  next_marker_at_ = d.u64();
  marker_alive_ = next_marker_at_ != 0;
  if ((tick_alive_ && next_tick_at_ < snap.cycle) ||
      (marker_alive_ && next_marker_at_ < snap.cycle))
    throw ckpt::SnapshotError("snapshot periodic chain is in the past");
  {
    auto ea = d.u64_vec();
    if (ea.size() != epoch_admitted_.size())
      throw ckpt::SnapshotError("snapshot tenant count mismatch");
    epoch_admitted_ = std::move(ea);
  }
  if (d.u64() != qos_.size())
    throw ckpt::SnapshotError("snapshot tenant count mismatch");
  for (TenantQos& q : qos_) {
    q.offered = d.u64();
    q.shed = d.u64();
    q.completed = d.u64();
    decode_hist(d, q.sojourn);
    decode_hist(d, q.queue_wait);
    decode_hist(d, q.service);
  }
  decode_hist(d, sojourn_);
  decode_hist(d, queue_wait_);
  decode_hist(d, service_);
  if (d.u64() != slots_.size())
    throw ckpt::SnapshotError("snapshot slot count mismatch");
  for (unsigned s = 0; s < slots_.size(); ++s) {
    slots_[s].generation = static_cast<unsigned>(d.u64());
    SlotBaseline& sb = slot_baseline_[s];
    sb.llc_requests = d.u64();
    sb.llc_hits = d.u64();
    sb.llc_misses = d.u64();
    sb.llc_writebacks = d.u64();
    sb.bypass_reads = d.u64();
  }
  baseline_.events = d.u64();
  baseline_.llc_hits = d.u64();
  baseline_.bypass_reads = d.u64();
  baseline_.noc_messages = d.u64();
  baseline_.en.llc_requests = d.u64();
  baseline_.en.llc_misses = d.u64();
  baseline_.en.llc_writebacks = d.u64();
  baseline_.en.flush_llc_lines = d.u64();
  baseline_.en.l1_hits = d.u64();
  baseline_.en.l1_misses = d.u64();
  baseline_.en.flush_l1_lines = d.u64();
  baseline_.en.noc_router_bytes = d.u64();
  baseline_.en.dram_accesses = d.u64();
  baseline_.en.rrt_lookups = d.u64();
  baseline_.nuca_total = d.f64();
  baseline_.nuca_weight = d.f64();
  baseline_.miss_lat_total = d.f64();
  baseline_.miss_lat_weight = d.f64();
  baseline_.tlb_hits = d.u64();
  baseline_.tlb_misses = d.u64();
  baseline_.tlb_shootdowns = d.u64();
  baseline_.l2_tlb_hits = d.u64();
  baseline_.walks = d.u64();
  baseline_.walk_loads = d.u64();
  baseline_.walk_cycles = d.u64();
  baseline_.isa_walk_cycles = d.u64();
  baseline_.psc_hits = d.u64();
  baseline_.huge_fallbacks = d.u64();
  mem::PageTable::AllocState as;
  as.next_frame = d.u64();
  as.rng_state = d.u64();
  as.skipped_frames = d.u64_vec();
  as.vm_words = d.u64_vec();
  page_table_.set_alloc_state(as);
  if (!d.done())
    throw ckpt::SnapshotError("snapshot payload has trailing bytes");
  // Admission conservation must hold at any quiescent point.
  if (done_ + shed_ + pending_.size() != offered_)
    throw ckpt::SnapshotError("snapshot violates admission conservation");
  resumed_ = true;
  resume_cycle_ = snap.cycle;
}

stats::Registry ServeSystem::collect_stats() const {
  stats::Registry r;
  const unsigned n = cfg_.num_cores();
  const auto& cs = caches_->stats();

  // Every machine-level metric is `baseline + fresh`: checkpoint folds move
  // the live counters into baseline_ and reset them, so with checkpointing
  // off the baseline is zero and these reduce to the original expressions
  // bit-for-bit (0 + x and 0.0 + x are exact for the finite values here;
  // integer counts combine as u64 before any double conversion).
  energy::EnergyInputs en = baseline_.en;
  en.llc_requests += cs.llc_requests.value();
  en.llc_misses += cs.llc_misses.value();
  en.llc_writebacks += cs.llc_writebacks.value();
  en.flush_llc_lines += cs.flush_llc_lines.value();
  en.l1_hits += cs.l1_hits.value();
  en.l1_misses += cs.l1_misses.value();
  en.flush_l1_lines += cs.flush_l1_lines.value();
  en.noc_router_bytes += net_->total_router_bytes();
  en.dram_accesses += mcs_->total_accesses();
  for (const Slot& slot : slots_)
    if (slot.tdnuca)
      en.rrt_lookups += slot.tdnuca->rrt_hits() + slot.tdnuca->rrt_misses();
  const std::uint64_t llc_hits = baseline_.llc_hits + cs.llc_hits.value();

  r.set("sim.cycles", static_cast<double>(makespan_));
  r.set("sim.events", static_cast<double>(baseline_.events + eq_.executed()));
  r.set("tasks.completed", static_cast<double>(tasks_total_));
  r.set("l1.hits", static_cast<double>(en.l1_hits));
  r.set("l1.misses", static_cast<double>(en.l1_misses));
  r.set("llc.requests", static_cast<double>(en.llc_requests));
  r.set("llc.hits", static_cast<double>(llc_hits));
  r.set("llc.misses", static_cast<double>(en.llc_misses));
  r.set("llc.writebacks", static_cast<double>(en.llc_writebacks));
  r.set("llc.accesses",
        static_cast<double>(en.llc_requests + en.llc_writebacks));
  {
    const double h = static_cast<double>(llc_hits);
    const double m = static_cast<double>(en.llc_misses);
    r.set("llc.hit_ratio", (h + m) > 0 ? h / (h + m) : 0.0);
  }
  r.set("llc.bypass_reads",
        static_cast<double>(baseline_.bypass_reads + cs.bypass_reads.value()));
  {
    const double w = baseline_.nuca_weight + cs.nuca_distance.weight();
    const double s = baseline_.nuca_total + cs.nuca_distance.total();
    r.set("nuca.mean_distance", w > 0 ? s / w : 0.0);
  }
  {
    const double w = baseline_.miss_lat_weight + cs.miss_latency.weight();
    const double s = baseline_.miss_lat_total + cs.miss_latency.total();
    r.set("l1.mean_miss_latency", w > 0 ? s / w : 0.0);
  }
  r.set("noc.router_bytes", static_cast<double>(en.noc_router_bytes));
  r.set("noc.messages",
        static_cast<double>(baseline_.noc_messages + net_->messages()));
  r.set("dram.accesses", static_cast<double>(en.dram_accesses));

  // Translation metrics: baseline + fresh like everything above (per-core
  // breakdowns are a single-program TiledSystem affordance; serving reports
  // machine aggregates). State-derived keys (page census) need no folding —
  // mappings and the buddy pool are part of the snapshot itself.
  {
    MachineBaseline t = baseline_;
    for (const auto& core : cores_) {
      const vm::Mmu& m = core->mmu();
      t.tlb_hits += m.tlb_hits();
      t.tlb_misses += m.tlb_misses();
      t.tlb_shootdowns += m.tlb_shootdowns();
      t.l2_tlb_hits += m.l2_tlb_hits();
      t.walks += m.walks();
      t.walk_loads += m.walk_loads();
      t.walk_cycles += m.walk_cycles();
      t.isa_walk_cycles += m.charge_walk_cycles();
      t.psc_hits += m.psc_hits();
    }
    r.set("tlb.hits", static_cast<double>(t.tlb_hits));
    r.set("tlb.misses", static_cast<double>(t.tlb_misses));
    r.set("mem.tlb_shootdowns", static_cast<double>(t.tlb_shootdowns));
    r.set("mem.mapped_pages",
          static_cast<double>(page_table_.mapped_pages()));
    r.set("mem.frames_used", static_cast<double>(page_table_.frames_used()));
    if (cfg_.vm.enabled) {
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
      r.set("vm.huge_fallbacks",
            static_cast<double>(t.huge_fallbacks +
                                page_table_.huge_fallbacks()));
      r.set("vm.punctured_frames",
            static_cast<double>(page_table_.punctured_frames()));
    }
  }

  const auto e = energy::compute_energy(en, energy::EnergyParams{});
  r.set("energy.llc_pj", e.llc_pj);
  r.set("energy.noc_pj", e.noc_pj);
  r.set("energy.dram_pj", e.dram_pj);
  r.set("energy.total_pj", e.total_pj());

  // --- serving aggregates ------------------------------------------------
  const double offered = static_cast<double>(offered_);
  r.set("serve.slots", static_cast<double>(opts_.slots));
  r.set("serve.horizon", static_cast<double>(opts_.horizon));
  r.set("serve.offered", offered);
  r.set("serve.admitted", static_cast<double>(offered_ - shed_));
  r.set("serve.shed", static_cast<double>(shed_));
  r.set("serve.shed_rate",
        offered_ > 0 ? static_cast<double>(shed_) / offered : 0.0);
  r.set("serve.completed", static_cast<double>(done_));
  // Goodput: completed requests per million cycles of the serving window
  // (its natural end is the later of horizon and last completion).
  const Cycle window = std::max(makespan_, opts_.horizon);
  r.set("serve.goodput",
        window > 0 ? static_cast<double>(done_) * 1e6 /
                         static_cast<double>(window)
                   : 0.0);
  r.set("serve.makespan", static_cast<double>(makespan_));
  r.set("serve.drain_cycles",
        static_cast<double>(makespan_ > opts_.horizon
                                ? makespan_ - opts_.horizon
                                : 0));
  r.set("serve.queue.max_depth", static_cast<double>(queue_max_depth_));
  r.set("serve.policy_switches", static_cast<double>(policy_switches_));

  auto emit_hist = [&r](const std::string& p, const obs::LatencyHistogram& h) {
    r.set(p + ".mean", h.mean());
    r.set(p + ".p50", static_cast<double>(h.percentile(0.50)));
    r.set(p + ".p99", static_cast<double>(h.percentile(0.99)));
    r.set(p + ".p999", static_cast<double>(h.percentile(0.999)));
    r.set(p + ".max", static_cast<double>(h.max()));
  };
  emit_hist("serve.sojourn", sojourn_);
  emit_hist("serve.queue_wait", queue_wait_);
  emit_hist("serve.service", service_);

  // --- per-tenant QoS ----------------------------------------------------
  for (unsigned t = 0; t < num_tenants(); ++t) {
    const TenantQos& q = qos_[t];
    const std::string p = "serve.tenant" + std::to_string(t);
    r.set(p + ".offered", static_cast<double>(q.offered));
    r.set(p + ".shed", static_cast<double>(q.shed));
    r.set(p + ".shed_rate", q.offered > 0 ? static_cast<double>(q.shed) /
                                                static_cast<double>(q.offered)
                                          : 0.0);
    r.set(p + ".completed", static_cast<double>(q.completed));
    r.set(p + ".goodput",
          window > 0 ? static_cast<double>(q.completed) * 1e6 /
                           static_cast<double>(window)
                     : 0.0);
    emit_hist(p + ".sojourn", q.sojourn);
    emit_hist(p + ".queue_wait", q.queue_wait);
  }

  // Per-slot LLC view (the AppView counters, plus their folded baselines).
  for (unsigned s = 0; s < opts_.slots; ++s) {
    const auto& ac = caches_->app_counters(s);
    const SlotBaseline& sb = slot_baseline_[s];
    const std::string p = "serve.slot" + std::to_string(s);
    r.set(p + ".llc.requests",
          static_cast<double>(sb.llc_requests + ac.llc_requests));
    r.set(p + ".llc.hits", static_cast<double>(sb.llc_hits + ac.llc_hits));
    r.set(p + ".llc.misses",
          static_cast<double>(sb.llc_misses + ac.llc_misses));
    r.set(p + ".requests_served", static_cast<double>(slots_[s].generation));
  }
  (void)n;
  return r;
}

}  // namespace tdn::serve
