// TiledSystem — one task-dataflow program on a system::Machine: the mesh,
// NoC, memory controllers, page table, NUCA policy, coherent cache hierarchy
// and timing cores the selected PolicyKind calls for, plus the program's
// runtime. This is the top-level object workloads and the benchmark harness
// interact with.
#pragma once

#include "mem/address_space.hpp"
#include "system/machine.hpp"

namespace tdn::system {

class TiledSystem {
 public:
  /// @p rec (optional) is wired through every layer at construction: the
  /// runtime, TD-NUCA hooks and cache hierarchy emit trace events into it,
  /// and the system registers its epoch time-series probes and heatmap
  /// providers. run() arms the epoch sampler. The recorder observes only —
  /// results are bit-identical with and without one attached.
  explicit TiledSystem(SystemConfig cfg, obs::Recorder* rec = nullptr);
  ~TiledSystem();
  TiledSystem(const TiledSystem&) = delete;
  TiledSystem& operator=(const TiledSystem&) = delete;

  const SystemConfig& config() const noexcept { return machine_.config(); }

  // --- the pieces workloads need ---------------------------------------
  mem::VirtualSpace& vspace() noexcept { return vspace_; }
  runtime::RuntimeSystem& runtime() noexcept { return *program_.rt; }

  // --- execution --------------------------------------------------------
  /// Run the created task graph to completion; returns the makespan cycle.
  /// @p cycle_limit guards against protocol deadlock in tests.
  Cycle run(Cycle cycle_limit = kNeverCycle);
  bool completed() const noexcept { return completed_; }

  // --- component access (stats, tests) ----------------------------------
  sim::EventQueue& events() noexcept { return machine_.events(); }
  const noc::Mesh& mesh() const noexcept { return machine_.mesh(); }
  noc::Network& network() noexcept { return machine_.network(); }
  coherence::CoherentSystem& caches() noexcept { return machine_.caches(); }
  mem::MemControllers& mcs() noexcept { return machine_.mcs(); }
  mem::PageTable& page_table() noexcept { return machine_.page_table(); }
  core::SimCore& core(CoreId id) { return machine_.core(id); }

  /// Non-null only for the matching PolicyKind.
  nuca::TdNucaPolicy* tdnuca_policy() noexcept {
    return policies_->tdnuca.get();
  }
  nuca::RNucaPolicy* rnuca_policy() noexcept { return policies_->rnuca.get(); }
  tdnuca::TdNucaRuntimeHooks* tdnuca_hooks() noexcept {
    return program_.hooks_td;
  }

  /// Non-null only when cfg.fault.plan is non-empty.
  fault::FaultInjector* fault_injector() noexcept {
    return machine_.fault_injector();
  }
  /// Built and armed by run() when cfg.fault.watchdog_budget > 0 (null
  /// before run() and when off).
  fault::Watchdog* watchdog() noexcept { return machine_.watchdog(); }

  energy::EnergyBreakdown energy(
      const energy::EnergyParams& params = {}) const {
    return machine_.energy(params);
  }

  /// Export the run's headline statistics into a registry.
  stats::Registry collect_stats() const;

 private:
  void register_observability();

  Machine machine_;
  mem::VirtualSpace vspace_;
  PolicySet* policies_ = nullptr;  ///< owned by machine_
  Program program_;
  bool completed_ = false;
};

}  // namespace tdn::system
