// Machine — the one simulated machine under every front-end: the tiled mesh
// of the paper's Table I with its NoC, edge-placed memory controllers, page
// table, NUCA policies, coherent cache hierarchy, cores and MMUs, plus the
// fault injector, watchdog and end-of-run invariant check that guard it.
// TiledSystem runs one program or N colocated programs on it to completion,
// and serve::ServeSystem a stream of requests on worker slots. Each
// front-end keeps only its programs and its driving loop (DESIGN.md Sec. 3).
//
// Each core maps through the policy of the partition that owns it: the
// hierarchy starts every core on the first policy set's active policy, and
// a front-end with several programs gives each partition its own through
// the hierarchy's app view. So a front-end assembles the machine in stages:
//
//   Machine m(cfg, rec);               // queue, mesh, page table, NoC, MCs
//   PolicySet& p = m.add_policies();   // once per program or worker slot
//   m.build(p.tdnuca.get());           // caches, cores, faults, obs
//   m.caches().set_app_view(parts, {p.active, ...});  // several programs
//   Program prog = m.make_program(p, cores, 0);
//
// Counters: the machine lists every counter it owns by its metric key, and
// every front-end exports the same key set from that list (add_stats). No
// layer ever resets a counter, so a snapshot records the running totals by
// name, and only a run restored from one (decode_baseline, used by
// ServeSystem) adds a baseline: the counts of its lineage before the
// snapshot. Every other run reports exactly its live counters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
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
  /// instance, while the TD-NUCA one keeps the bookkeeping; an adaptive
  /// serving slot points it at the policy its next request maps through.
  nuca::MappingPolicy* active = nullptr;
  /// What the TD-NUCA runtime hooks of every program on this set counted.
  tdnuca::HookCounters hooks;

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
  /// Build the coherent hierarchy and every core with its MMU. Every core
  /// starts on the first policy set's active policy (a policy set must
  /// exist). Every policy added so far gets the hierarchy's cache
  /// operations and every R-NUCA instance the MMUs it shoots down. With a
  /// non-empty cfg.fault.plan, build the fault injector and the health view
  /// every layer and policy shares; with a recorder, register the machine's
  /// tracks, attribution sinks, epoch series and heatmaps. @p rrt is the
  /// TD-NUCA policy whose RRTs the plan's soft errors hit. A machine with
  /// TD-NUCA RRTs but no @p rrt rejects rrt_flip and rrt_evict, which would
  /// otherwise hit nothing.
  void build(nuca::TdNucaPolicy* rrt);
  /// The program factory: a scheduler per cfg.scheduler, a runtime over
  /// @p cores and runtime hooks. The hooks are TD-NUCA's, driving @p set's
  /// TD-NUCA policy and counting into set.hooks, unless the set has none or
  /// its active policy is its R-NUCA alternate; plain hooks otherwise.
  /// @p stream decorrelates the dispatch jitter of co-scheduled programs;
  /// 0 keeps cfg.runtime.jitter_seed.
  Program make_program(PolicySet& set, const CoreMask& cores,
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
  /// Every machine key: each counter's total, the keys derived from the
  /// totals (llc.accesses, hit ratios, means, energy.*) and the gauges,
  /// which read current state (page census, vm.pages_*, rnuca.*,
  /// fault.healthy_banks). Per-bank llc.bankN.*, per-core mem.coreN.*,
  /// flush.busy_cycles and cache.forced_unsafe_evictions always; vm.* when
  /// cfg.vm is on; rrt.* and tdnuca.* with a TD-NUCA policy; rnuca.* with an
  /// R-NUCA one; appK.llc.* with an app view; fault.* with a fault plan.
  void add_stats(stats::Registry& r) const;
  energy::EnergyBreakdown energy(const energy::EnergyParams& params = {}) const;

  // --- checkpoint (tdn::ckpt) --------------------------------------------
  /// Return caches, TLBs, RRTs, page classifications and VA mappings to
  /// their post-construction state (the allocator position and every
  /// counter survive).
  void cold_normalize();
  /// The machine half of a snapshot payload: the counter totals as
  /// (name, value) pairs and the page allocator state. Call from inside
  /// the checkpoint event.
  void encode_baseline(ckpt::Encoder& e) const;
  /// Seed the baseline with a snapshot's totals and restore the allocator.
  /// Throws ckpt::SnapshotError when the snapshot names other counters
  /// than this machine owns.
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

  /// Counter values by metric key.
  using Totals = std::map<std::string, std::uint64_t>;
  /// Every counter the machine owns, live. Keys that start with '_' are
  /// sums only derived keys read (means, energy); add_stats does not
  /// export them.
  Totals counters() const;
  /// counters() continued from a restored baseline.
  Totals totals() const;

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
  Totals base_;  ///< totals before a restore; empty otherwise
};

}  // namespace tdn::system
