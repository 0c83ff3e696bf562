#include "serve/serve_system.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "common/require.hpp"
#include "obs/recorder.hpp"

namespace tdn::serve {

ServeSystem::ServeSystem(system::SystemConfig cfg, multi::MixSpec tenants,
                         ServeOptions opts, obs::Recorder* rec)
    : tenants_(std::move(tenants)), opts_(std::move(opts)), rec_(rec),
      machine_(cfg, rec) {
  const unsigned n = cfg.num_cores();
  TDN_REQUIRE(opts_.enabled(), "ServeSystem needs an arrival spec");
  TDN_REQUIRE(opts_.slots >= 1, "at least one worker slot");
  TDN_REQUIRE(cfg.policy != system::PolicyKind::TdNucaDryRun,
              "TdNucaDryRun is a single-program overhead study; "
              "not supported in serving mode");
  TDN_REQUIRE(!opts_.adaptive || cfg.policy == system::PolicyKind::TdNuca,
              "adaptive switching starts from the TdNuca policy");
  if (opts_.adaptive) TDN_REQUIRE(opts_.epoch > 0, "adaptive needs an epoch");
  qos_.resize(tenants_.apps.size());
  epoch_admitted_.assign(tenants_.apps.size(), 0);
  slot_baseline_.resize(opts_.slots);

  // --- worker slots: row-granular machine partitions ---------------------
  const std::vector<CoreMask> part =
      multi::row_partitions(cfg.mesh_w, cfg.mesh_h, opts_.slots);
  slots_.resize(opts_.slots);
  std::vector<nuca::MappingPolicy*> slot_policies;
  for (unsigned s = 0; s < opts_.slots; ++s) {
    Slot& slot = slots_[s];
    slot.cores = part[s];
    slot.banks = part[s];
    // Adaptive slots carry the alternate R-NUCA policy too; dispatch picks.
    slot.policies = &machine_.add_policies(opts_.adaptive);
    slot.policies->for_each([&slot](nuca::MappingPolicy& p) {
      p.set_partition(slot.banks, slot.cores);
    });
    slot_policies.push_back(slot.policies->active);
  }

  // Wrap mode: request address-space slice slot + slots*generation folds
  // back onto its worker slot's active policy. Per-slot RRTs: no RRT
  // target; in-map health guards suffice.
  router_ = std::make_unique<multi::AppRouter>(slot_policies, /*wrap=*/true);
  machine_.build(*router_, nullptr);

  // Per-slot LLC accounting (attribution is by requester core, so slices
  // beyond the slot count never index the view).
  coherence::CoherentSystem::AppView view;
  view.num_apps = opts_.slots;
  view.core_app.resize(n);
  const unsigned rows_per_slot = cfg.mesh_h / opts_.slots;
  for (unsigned c = 0; c < n; ++c)
    view.core_app[c] =
        static_cast<std::uint8_t>(c / (rows_per_slot * cfg.mesh_w));
  machine_.caches().set_app_view(std::move(view));

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
  // Scheduling order is load-bearing for same-cycle ties: plan events get
  // the lowest sequence numbers (before arrivals), exactly as in the
  // original lineage, so a fault and an arrival on the same cycle keep
  // their relative order across a restore. A restored lineage first jumps
  // the fresh queue's clock to the quiescent point, so everything below
  // schedules at absolute post-restore cycles.
  machine_.arm(resumed_ ? std::optional<Cycle>(resume_cycle_) : std::nullopt);
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
  // cycles recorded in the snapshot (a tick can be pending at the
  // checkpoint cycle itself when settle_grace exceeds the epoch) — and in
  // this order, after arrivals and before the re-dispatch pump below,
  // reproducing the original lineage's sequence-number tie order.
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
    // The snapshot captured the pending queue *before* the post-checkpoint
    // pump; the original lineage pumped inside the checkpoint event, we pump
    // here — same cycle, same dispatch order, same derived seeds.
    if (arrivals_remaining_ == 0 && pending_.empty() &&
        done_ + shed_ == offered_)
      completed_ = true;
    pump();
  }
  // Witness: memory-system traffic plus admission outcomes.
  if (fault::Watchdog* wd = machine_.arm_watchdog(
          [this] { return offered_ + done_ + shed_; })) {
    wd->add_diagnostic("serve", [this] {
      std::string s = "offered=" + std::to_string(offered_) +
                      " done=" + std::to_string(done_) +
                      " shed=" + std::to_string(shed_) +
                      " pending=" + std::to_string(pending_.size()) +
                      " draining=" + std::to_string(draining_ ? 1 : 0);
      return s;
    });
    wd->add_diagnostic("checkpoint", [this] {
      if (!ckpt_active()) return std::string("disabled");
      return "dir=" + (ckpt_.dir.empty() ? std::string("<none>") : ckpt_.dir) +
             " written=" + std::to_string(snapshots_written_) +
             " (resume the newest snapshot with ckpt.resume=true)";
    });
  }
  eq_.run_until(cycle_limit);
  TDN_REQUIRE(completed_,
              "serving drained without completing every admitted request");
  for (const Slot& slot : slots_)
    machine_.check_invariants(slot.policies->tdnuca.get(), nullptr);
  for (const auto& live : graveyard_)
    if (live->program.hooks_td)
      machine_.check_invariants(nullptr, live->program.hooks_td);
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
  const Request& r = requests_[rid];
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

  const system::PolicySet& policies = *slot.policies;
  nuca::MappingPolicy* pol = policies.active;
  if (opts_.adaptive)
    pol = use_tdnuca_ ? static_cast<nuca::MappingPolicy*>(policies.tdnuca.get())
                      : policies.rnuca.get();
  router_->set_policy(s, pol);

  nuca::TdNucaPolicy* td =
      pol == policies.tdnuca.get() ? policies.tdnuca.get() : nullptr;
  // Distinct jitter stream per request id: back-to-back requests on a slot
  // must not mirror each other's dispatch noise.
  live->program = machine_.make_program(td, slot.cores, rid + 1);

  workloads::WorkloadParams p = params_;
  p.scale = opts_.request_scale;
  // Decorrelate repeated requests of one tenant's workload.
  p.seed = params_.seed + 1000003ull * (rid + 1);
  live->workload = workloads::make_workload(tenants_.apps[r.tenant], p);
  live->workload->build(
      workloads::BuildContext{*live->vspace, *live->program.rt});
  TDN_REQUIRE(live->vspace->footprint() < multi::kAppStride,
              "request footprint overflows its address-space slice");

  slot.live = std::move(live);
  slot.live->program.rt->run([this, s, rid] { on_complete(s, rid); });
}

void ServeSystem::on_complete(unsigned s, unsigned rid) {
  Slot& slot = slots_[s];
  Request& r = requests_[rid];
  r.complete = eq_.now();
  ++done_;
  tasks_total_ += slot.live->program.rt->tasks_completed();
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
  if (draining_) return;  // refills resume at the checkpoint
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
  for (unsigned s = 0; s < opts_.slots; ++s)
    rec_->set_track_name(obs::Recorder::kServeTrackBase + s,
                         "serve slot " + std::to_string(s));
  rec_->set_track_name(obs::Recorder::kServeTrackBase + opts_.slots,
                       "serve admission");

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

/// Apply @p f field by field across AppView counters, in snapshot order.
template <class F, class... C>
void each_app_counter(F&& f, C&... c) {
  f(c.llc_requests...);
  f(c.llc_hits...);
  f(c.llc_misses...);
  f(c.llc_writebacks...);
  f(c.bypass_reads...);
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
  ckpt_take();
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
  if (const fault::FaultInjector* inj = machine_.fault_injector())
    expected += inj->plan_pending();
  return eq_.real_pending() == expected;
}

void ServeSystem::ckpt_take() {
  TDN_ASSERT(draining_ && quiescent());
  const Cycle cyc = eq_.now();
  machine_.cold_normalize();
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
  // can be pending at the checkpoint cycle itself (settle_grace > epoch), so
  // this must be recorded, never re-derived from the cadence.
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
    coherence::CoherentSystem::AppCounters t = slot_baseline_[s];
    each_app_counter([](auto& a, const auto& b) { a += b; }, t,
                     machine_.caches().app_counters(s));
    each_app_counter([&e](std::uint64_t v) { e.u64(v); }, t);
  }
  machine_.encode_baseline(e);
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
    each_app_counter([&d](std::uint64_t& v) { v = d.u64(); },
                     slot_baseline_[s]);
  }
  machine_.decode_baseline(d);
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
  r.set("sim.cycles", static_cast<double>(makespan_));
  r.set("tasks.completed", static_cast<double>(tasks_total_));
  // Machine totals are `baseline + fresh`; the baseline is nonzero only in
  // a run restored from a snapshot.
  machine_.add_stats(r);

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

  // Per-slot LLC view (the AppView counters, plus their restored baselines).
  for (unsigned s = 0; s < opts_.slots; ++s) {
    const auto& ac = machine_.caches().app_counters(s);
    const auto& sb = slot_baseline_[s];
    const std::string p = "serve.slot" + std::to_string(s);
    r.set(p + ".llc.requests",
          static_cast<double>(sb.llc_requests + ac.llc_requests));
    r.set(p + ".llc.hits", static_cast<double>(sb.llc_hits + ac.llc_hits));
    r.set(p + ".llc.misses",
          static_cast<double>(sb.llc_misses + ac.llc_misses));
    r.set(p + ".requests_served", static_cast<double>(slots_[s].generation));
  }
  return r;
}

}  // namespace tdn::serve
