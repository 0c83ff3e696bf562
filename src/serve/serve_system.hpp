// ServeSystem — open-arrival request serving on one shared NUCA machine.
//
// The open-system counterpart of a colocated system::TiledSystem
// (docs/serving.md): instead of N fixed co-resident applications, task-graph
// *requests* arrive over simulated time (serve::ArrivalSpec), pass an
// admission controller with a bounded pending queue, and execute
// one-at-a-time on row-granular worker slots of one system::Machine. Each
// slot's cores map through the slot's policy (the hierarchy's app view).
// Each request gets a fresh program (runtime, scheduler, hooks) and a
// kAppStride-aligned address-space slice (slice slot + slots * generation),
// so consecutive requests on a slot can never alias in memory and a
// mid-stream policy switch never leaves two policies disagreeing about a
// live line.
//
// QoS accounting: per-tenant and total sojourn / queue-wait / service-time
// LatencyHistograms (deterministic tail percentiles), goodput, shed rate and
// time-to-drain — all surfaced through collect_stats() as serve.* keys.
//
// Adaptive policy switching (opts.adaptive): slots carry both a TD-NUCA and
// an R-NUCA policy instance; an epoch sampler on *real* events (it mutates
// scheduling, so it must be part of the simulation) watches the admitted
// tenant mix and flips which policy future dispatches use when tenant 0's
// share crosses opts.switch_threshold. In-flight requests keep the policy
// they started with.
//
// Determinism: the arrival trace is pre-generated from the config seed, one
// single-threaded event loop serves everything, per-request seeds derive
// from the request id alone — runs are bit-identical across repetitions and
// SweepRunner job counts, and cacheable like any RunConfig.
//
// Checkpoint/restore (tdn::ckpt, docs/serving.md §checkpointing): with
// set_checkpoint(), the run periodically drains to a dispatch-boundary
// quiescent point (no slot busy, no transaction in flight), cold-normalizes
// the machine (arrays, TLBs, RRTs, page classifications, VA mappings) and
// publishes a crash-safe snapshot of the logical serving state, which
// records the machine's running counter totals by name. Because the
// continuing run performs the *same* cold reset it snapshots, a run restored
// from any snapshot replays the identical event stream, and seeding its
// counters with the snapshot's totals makes end-of-run metrics — counts,
// means, energies, and every tail percentile — bit-identical to the
// uninterrupted run's. Checkpoint cadence is simulated behavior and enters
// the fingerprint via ckpt::Options::canonical().
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "mem/address_space.hpp"
#include "multi/mix.hpp"
#include "obs/latency_histogram.hpp"
#include "serve/arrival.hpp"
#include "serve/options.hpp"
#include "system/machine.hpp"
#include "workloads/workload.hpp"

namespace tdn::serve {

/// Per-tenant QoS accumulators.
struct TenantQos {
  std::uint64_t offered = 0;    ///< arrivals
  std::uint64_t shed = 0;       ///< rejected / dropped by admission
  std::uint64_t completed = 0;  ///< ran to completion
  obs::LatencyHistogram sojourn;     ///< complete - arrive
  obs::LatencyHistogram queue_wait;  ///< dispatch - arrive
  obs::LatencyHistogram service;     ///< complete - dispatch
};

class ServeSystem {
 public:
  /// Builds the machine and the per-slot partitions. @p tenants names one
  /// workload per tenant ('+'-joined, single names allowed); arrivals draw
  /// a tenant per request by opts.weights. @p cfg.policy is the per-slot
  /// NUCA policy (TdNucaDryRun unsupported); opts.adaptive requires TdNuca.
  /// @p rec (optional) observes only, as everywhere else.
  ServeSystem(system::SystemConfig cfg, multi::MixSpec tenants,
              ServeOptions opts, obs::Recorder* rec = nullptr);
  ~ServeSystem();
  ServeSystem(const ServeSystem&) = delete;
  ServeSystem& operator=(const ServeSystem&) = delete;

  /// Expand the arrival trace for [0, opts.horizon) from @p params.seed and
  /// size the request table. Call once, before run().
  void build(const workloads::WorkloadParams& params);

  /// Serve the whole trace and drain: returns the cycle the last admitted
  /// request completed (the makespan). @p cycle_limit guards tests.
  Cycle run(Cycle cycle_limit = kNeverCycle);
  bool completed() const noexcept { return completed_; }

  // --- checkpoint/restore (tdn::ckpt) -----------------------------------
  /// Enable quiescent-point checkpointing. @p opts.every is the sim-time
  /// cadence (behavioral: it enters the run's fingerprint — pass that
  /// fingerprint hash as @p config_fingerprint so snapshot files bind to
  /// this exact configuration). Under adaptive switching the cadence must
  /// be a multiple of opts_.epoch: the drain rides the epoch-tick chain, so
  /// marker-vs-tick tie ordering can never diverge between the original and
  /// a restored lineage. Call before run().
  void set_checkpoint(const ckpt::Options& opts,
                      std::uint64_t config_fingerprint);
  /// Rebuild the logical serving state from a validated snapshot (same
  /// fingerprint, produced by an identically configured run). Call after
  /// build() and before run(); run() then resumes at snap.cycle. Throws
  /// ckpt::SnapshotError on any payload inconsistency.
  void resume_from(const ckpt::Snapshot& snap);
  bool resumed() const noexcept { return resumed_; }
  Cycle resume_cycle() const noexcept { return resume_cycle_; }
  /// Snapshots successfully published by this run.
  std::uint64_t snapshots_written() const noexcept {
    return snapshots_written_;
  }
  /// The liveness watchdog, armed by run() when
  /// config().fault.watchdog_budget > 0 (null before run() / when off).
  fault::Watchdog* watchdog() noexcept { return machine_.watchdog(); }

  // --- introspection ----------------------------------------------------
  unsigned num_tenants() const noexcept {
    return static_cast<unsigned>(tenants_.apps.size());
  }
  std::uint64_t offered() const noexcept { return offered_; }
  std::uint64_t shed() const noexcept { return shed_; }
  std::uint64_t requests_completed() const noexcept { return done_; }
  std::size_t queue_max_depth() const noexcept { return queue_max_depth_; }
  std::uint64_t policy_switches() const noexcept { return policy_switches_; }
  const obs::LatencyHistogram& sojourn() const noexcept { return sojourn_; }

  sim::EventQueue& events() noexcept { return machine_.events(); }
  const system::SystemConfig& config() const noexcept {
    return machine_.config();
  }
  const ServeOptions& options() const noexcept { return opts_; }
  fault::FaultInjector* fault_injector() noexcept {
    return machine_.fault_injector();
  }

  /// The machine's keys, as every run exports them (slot K's LLC view is
  /// appK.llc.*); serving metrics live under serve.*, serve.tenantK.* and
  /// serve.slotK.* — see docs/serving.md for every key.
  stats::Registry collect_stats() const;

 private:
  /// One entry per generated arrival, in arrival order.
  struct Request {
    unsigned tenant = 0;
    Cycle arrive = 0;
    Cycle dispatch = 0;
    Cycle complete = 0;
  };

  /// Everything owned by one in-flight request; destroyed (via the
  /// graveyard) after its runtime drains.
  struct Live {
    std::unique_ptr<mem::VirtualSpace> vspace;
    system::Program program;
    std::unique_ptr<workloads::Workload> workload;
  };

  struct Slot {
    CoreMask cores;
    /// Owned by the machine. Adaptive mode holds both tdnuca and rnuca;
    /// otherwise the one cfg.policy names.
    system::PolicySet* policies = nullptr;
    bool busy = false;
    unsigned generation = 0;  ///< completed dispatches on this slot
    std::unique_ptr<Live> live;
  };

  void on_arrival(unsigned rid);
  void shed_request(unsigned rid);
  void dispatch(unsigned slot, unsigned rid);
  void on_complete(unsigned slot, unsigned rid);
  /// Dispatch queued requests onto freed slots (deferred off the finishing
  /// runtime's own call stack via a zero-delay event).
  void pump();
  void epoch_tick();
  bool any_busy() const noexcept;
  void register_observability();

  // --- checkpoint machinery (tdn::ckpt) ---------------------------------
  bool ckpt_active() const noexcept { return ckpt_.enabled(); }
  /// Standalone cadence chain (non-adaptive mode only; adaptive rides the
  /// epoch-tick chain — see set_checkpoint).
  void ckpt_marker();
  /// Stop dispatching and wait for the machine to go idle.
  void begin_drain(bool emergency);
  /// Periodic (ckpt::kSettleGrace) quiescence probe while draining.
  void ckpt_settle();
  /// True when nothing is in flight: no busy slot and every pending real
  /// event is expected future work (arrivals, the tick/marker chains,
  /// unfired fault-plan events) rather than an in-flight transaction.
  bool quiescent() const;
  /// At the quiescent point: cold-normalize, publish the snapshot, then
  /// resume dispatching (or throw on an interrupt).
  void ckpt_take();
  std::string encode_snapshot() const;
  /// Begin an off-cadence emergency drain when a SIGINT/SIGTERM handler
  /// raised the ckpt interrupt flag.
  void poll_interrupt();

  multi::MixSpec tenants_;
  ServeOptions opts_;
  obs::Recorder* rec_ = nullptr;

  system::Machine machine_;
  sim::EventQueue& eq_ = machine_.events();
  std::vector<Slot> slots_;

  workloads::WorkloadParams params_;
  std::vector<Request> requests_;
  std::deque<unsigned> pending_;  ///< admitted, waiting for a slot
  /// Retired request state. The TD-NUCA flush joiners of a finished request
  /// can fire after its runtime's completion callback, so retired Lives are
  /// only destroyed once run() drains the whole event queue.
  std::vector<std::unique_ptr<Live>> graveyard_;

  // --- counters / QoS ----------------------------------------------------
  std::uint64_t offered_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t tasks_total_ = 0;  ///< tasks across all retired runtimes
  std::uint64_t arrivals_remaining_ = 0;
  std::size_t queue_max_depth_ = 0;
  Cycle makespan_ = 0;
  std::vector<TenantQos> qos_;
  obs::LatencyHistogram sojourn_, queue_wait_, service_;

  // --- adaptive switching -------------------------------------------------
  bool use_tdnuca_ = true;  ///< which policy future dispatches use
  std::uint64_t policy_switches_ = 0;
  std::vector<std::uint64_t> epoch_admitted_;  ///< per-tenant, current epoch
  bool tick_alive_ = false;   ///< an epoch tick is scheduled
  Cycle next_tick_at_ = 0;    ///< its absolute cycle (valid when alive)

  // --- checkpoint state ---------------------------------------------------
  ckpt::Options ckpt_;
  std::uint64_t ckpt_fingerprint_ = 0;
  bool draining_ = false;   ///< dispatching suspended until the checkpoint
  bool emergency_ = false;  ///< this drain answers an interrupt request
  bool marker_alive_ = false;  ///< a cadence marker is scheduled
  Cycle next_marker_at_ = 0;   ///< its absolute cycle (valid when alive)
  std::uint64_t snapshots_written_ = 0;
  bool resumed_ = false;
  Cycle resume_cycle_ = 0;
  std::uint64_t cursor_ = 0;  ///< arrivals consumed before the snapshot

  bool built_ = false;
  bool ran_ = false;
  bool completed_ = false;
};

}  // namespace tdn::serve
