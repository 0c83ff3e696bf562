// Machine — the one simulated machine under every front-end: the tiled mesh
// of the paper's Table I with its NoC, edge-placed memory controllers, page
// table, NUCA policies, coherent cache hierarchy, cores and MMUs, plus the
// fault injector, watchdog and end-of-run invariant check that guard it.
// TiledSystem runs one program on it, multi::MultiProgramSystem N colocated
// programs and serve::ServeSystem a stream of requests on worker slots. Each
// front-end keeps only its programs and its driving loop (DESIGN.md Sec. 3).
//
// The hierarchy consults one policy object, and the front-end picks it: the
// program's own policy for one program, a multi::AppRouter over several. So
// a front-end assembles the machine in stages:
//
//   Machine m(cfg, rec);               // queue, mesh, page table, NoC, MCs
//   PolicySet& p = m.add_policies();   // once per program or worker slot
//   m.build(*p.active, p.tdnuca.get());  // caches, cores, faults, obs
//   Program prog = m.make_program(p.tdnuca.get(), cores, 0);
//
// Counters: every key the machine exports is `baseline + fresh`. No layer
// ever resets a counter, so a snapshot records the running totals, and only
// a run restored from one (decode_baseline, used by ServeSystem) has a
// nonzero baseline: the counts of its lineage before the snapshot. Every
// other run reports exactly its live counters.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coherence/coherent_system.hpp"
#include "core/sim_core.hpp"
#include "energy/energy_model.hpp"
#include "fault/injector.hpp"
#include "fault/watchdog.hpp"
#include "mem/dram.hpp"
#include "mem/page_table.hpp"
#include "noc/mesh.hpp"
#include "noc/network.hpp"
#include "nuca/rnuca.hpp"
#include "nuca/snuca.hpp"
#include "nuca/tdnuca_policy.hpp"
#include "runtime/runtime_system.hpp"
#include "runtime/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "stats/registry.hpp"
#include "system/config.hpp"
#include "tdnuca/runtime_hooks.hpp"

namespace tdn::obs {
class Recorder;
}
namespace tdn::ckpt {
class Encoder;
class Decoder;
}

namespace tdn::system {

/// The NUCA policy objects one program (or worker slot) maps through.
struct PolicySet {
  std::unique_ptr<nuca::SNucaPolicy> snuca;
  std::unique_ptr<nuca::RNucaPolicy> rnuca;
  std::unique_ptr<nuca::TdNucaPolicy> tdnuca;
  /// What the hierarchy consults. Under TdNucaDryRun it is the S-NUCA
  /// instance, while the TD-NUCA one keeps the bookkeeping.
  nuca::MappingPolicy* active = nullptr;

  template <class F>
  void for_each(F&& f) const {
    if (snuca) f(*snuca);
    if (rnuca) f(*rnuca);
    if (tdnuca) f(*tdnuca);
  }
};

/// One task-dataflow program: its scheduler, runtime hooks and runtime.
struct Program {
  std::unique_ptr<runtime::Scheduler> scheduler;
  std::unique_ptr<runtime::RuntimeHooks> hooks;
  tdnuca::TdNucaRuntimeHooks* hooks_td = nullptr;  ///< `hooks`, if TD-NUCA's
  std::unique_ptr<runtime::RuntimeSystem> rt;
  /// Watchdog diagnostic: ready and completed tasks, pending flushes.
  std::string describe() const;
};

class Machine {
 public:
  /// Builds the event queue, mesh, page table, NoC and memory controllers.
  /// @p rec (optional) is handed to every layer; it observes only.
  Machine(const SystemConfig& cfg, obs::Recorder* rec);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- assembly, in the order of the header comment --------------------
  /// The policy factory: the objects cfg.policy names, owned by the
  /// machine. @p alternate_rnuca adds an R-NUCA instance beside TD-NUCA's
  /// (serving's adaptive switching).
  PolicySet& add_policies(bool alternate_rnuca = false);
  /// Build the coherent hierarchy over @p top and every core with its MMU.
  /// Every policy added so far gets the hierarchy's cache operations (an
  /// AppRouter does not forward them) and every R-NUCA instance the MMUs
  /// it shoots down. With a non-empty cfg.fault.plan, build the fault
  /// injector and the health view every layer and policy shares; with a
  /// recorder, register the machine's tracks, attribution sinks, epoch
  /// series and heatmaps. @p rrt is the TD-NUCA policy whose RRTs the
  /// plan's soft errors hit. A machine with TD-NUCA RRTs but no @p rrt
  /// rejects rrt_flip and rrt_evict, which would otherwise hit nothing.
  void build(nuca::MappingPolicy& top, nuca::TdNucaPolicy* rrt);
  /// The program factory: a scheduler per cfg.scheduler, TD-NUCA runtime
  /// hooks driving @p td (plain hooks when null) and a runtime over
  /// @p cores. @p stream decorrelates the dispatch jitter of co-scheduled
  /// programs; 0 keeps cfg.runtime.jitter_seed.
  Program make_program(nuca::TdNucaPolicy* td, const CoreMask& cores,
                       std::uint64_t stream);

  // --- running ----------------------------------------------------------
  /// Arm the recorder's epoch sampler and the fault plan. Call once, before
  /// any program schedules work: plan events take the lowest sequence
  /// numbers, so they win same-cycle ties. A restored run passes @p resume:
  /// the clock jumps there, and plan events up to it are replayed as state
  /// (FaultInjector::arm_from).
  void arm(std::optional<Cycle> resume = {});
  /// Build and arm the no-progress watchdog when cfg.fault.watchdog_budget
  /// > 0; returns null otherwise. The witness is the memory system's
  /// traffic plus @p program_progress. The front-end adds its own
  /// diagnostics to the returned watchdog.
  fault::Watchdog* arm_watchdog(
      std::function<std::uint64_t()> program_progress);
  /// End-of-run InvariantChecker (TDN_CHECK, Release included) for one
  /// program's TD-NUCA @p policy and @p hooks, either may be null. No-op
  /// when cfg.fault.check_invariants is off.
  void check_invariants(const nuca::TdNucaPolicy* policy,
                        const tdnuca::TdNucaRuntimeHooks* hooks) const;

  // --- statistics -------------------------------------------------------
  // Each front-end calls the pieces its key set has. add_stats adds the
  // restored baseline in; the other pieces read live counters only, so a
  // front-end that restores snapshots must not call them.
  /// sim.events, l1.*, llc.* totals, nuca/noc/dram, TLB and page-table
  /// aggregates, vm.* (when enabled) and energy.*.
  void add_stats(stats::Registry& r) const;
  /// cache.forced_unsafe_evictions and the per-bank llc.bankN.* breakdown.
  void add_bank_stats(stats::Registry& r) const;
  /// Per-core mem.coreN.tlb_* and the flush engines' flush.busy_cycles.
  void add_core_stats(stats::Registry& r) const;
  /// fault.* (only with an active plan, so healthy runs keep their keys).
  void add_fault_stats(stats::Registry& r) const;
  energy::EnergyBreakdown energy(const energy::EnergyParams& params = {}) const;

  // --- checkpoint (tdn::ckpt) --------------------------------------------
  /// Return caches, TLBs, RRTs, page classifications and VA mappings to
  /// their post-construction state (the allocator position and every
  /// counter survive).
  void cold_normalize();
  /// The machine half of a snapshot payload: the counter totals and the
  /// page allocator state. Call from inside the checkpoint event.
  void encode_baseline(ckpt::Encoder& e) const;
  /// Seed the baseline with a snapshot's totals and restore the allocator.
  void decode_baseline(ckpt::Decoder& d);

  // --- components -------------------------------------------------------
  const SystemConfig& config() const noexcept { return cfg_; }
  obs::Recorder* recorder() const noexcept { return rec_; }
  sim::EventQueue& events() noexcept { return eq_; }
  const sim::EventQueue& events() const noexcept { return eq_; }
  const noc::Mesh& mesh() const noexcept { return mesh_; }
  mem::PageTable& page_table() noexcept { return page_table_; }
  noc::Network& network() noexcept { return *net_; }
  mem::MemControllers& mcs() noexcept { return *mcs_; }
  coherence::CoherentSystem& caches() noexcept { return *caches_; }
  const coherence::CoherentSystem& caches() const noexcept { return *caches_; }
  core::SimCore& core(CoreId id) { return *cores_.at(id); }
  /// Non-null only when cfg.fault.plan is non-empty.
  fault::FaultInjector* fault_injector() noexcept { return injector_.get(); }
  const fault::FaultInjector* fault_injector() const noexcept {
    return injector_.get();
  }
  const fault::HealthState* health() const noexcept {
    return injector_ ? &injector_->health() : nullptr;
  }
  /// Non-null once arm_watchdog built one.
  fault::Watchdog* watchdog() noexcept { return watchdog_.get(); }

 private:
  void wire_faults(nuca::TdNucaPolicy* rrt);
  void register_observability();

  /// Every counter a snapshot records. The doubles hold integer sums far
  /// below 2^53, so a restored baseline plus the counts after it is exactly
  /// the total an uninterrupted run reaches.
  struct Counters {
    std::uint64_t llc_hits = 0, bypass_reads = 0, noc_messages = 0;
    energy::EnergyInputs en;  ///< l1/llc/flush/noc/dram/rrt event counts
    double nuca_total = 0.0, nuca_weight = 0.0;  ///< Sampled sums, samples
    double miss_lat_total = 0.0, miss_lat_weight = 0.0;
    // Translation, summed over every core's MMU.
    std::uint64_t tlb_hits = 0, tlb_misses = 0, tlb_shootdowns = 0;
    std::uint64_t l2_tlb_hits = 0, walks = 0, walk_loads = 0;
    Cycle walk_cycles = 0, isa_walk_cycles = 0;
    std::uint64_t psc_hits = 0, huge_fallbacks = 0;
  };
  /// Apply @p f field by field across @p c, in snapshot order.
  template <class F, class... C>
  static void each(F&& f, C&... c);
  Counters fresh() const;  ///< the live counters
  Counters total() const;  ///< baseline + fresh

  SystemConfig cfg_;
  obs::Recorder* rec_ = nullptr;
  sim::EventQueue eq_;
  noc::Mesh mesh_;
  mem::PageTable page_table_;
  std::unique_ptr<noc::Network> net_;
  std::unique_ptr<mem::MemControllers> mcs_;
  std::vector<std::unique_ptr<PolicySet>> policies_;
  std::unique_ptr<coherence::CoherentSystem> caches_;
  std::vector<std::unique_ptr<core::SimCore>> cores_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::Watchdog> watchdog_;
  Counters base_;  ///< totals before a restore; zero otherwise
  std::uint64_t base_events_ = 0;  ///< events executed before a restore
};

}  // namespace tdn::system
