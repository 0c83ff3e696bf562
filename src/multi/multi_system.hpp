// MultiProgramSystem — N independent task-dataflow applications colocated on
// one system::Machine (DESIGN.md Sec. 3, docs/multiprog.md).
//
// Shared between apps: the whole machine — event queue, mesh/NoC, memory
// controllers, page table and the banked coherent LLC. Per app: a workload,
// an offset virtual address space (mix.hpp's kAppStride keeps streams
// alias-free), a NUCA policy set (own RRTs / page classifications) and a
// program (scheduler, hooks, runtime) over that app's core partition. An
// AppRouter presents the per-app policies to the hierarchy as one; the
// CoherentSystem's app view (the row partitions) provides per-app LLC
// counters and inter-app bank-conflict accounting.
//
// Determinism: one single-threaded event loop drives all apps, per-app PRNG
// seeds derive from the app index alone, so mixes are bit-identical across
// repeated runs and SweepRunner job counts — and cacheable like any run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "multi/app_router.hpp"
#include "multi/mix.hpp"
#include "system/machine.hpp"
#include "workloads/workload.hpp"

namespace tdn::multi {

class MultiProgramSystem {
 public:
  /// Builds the machine and the per-app runtimes; call build() to create
  /// the task graphs and run() to execute them. @p cfg.policy selects the
  /// NUCA policy *every* app runs (the colocation benchmarks compare
  /// policies, not mixed-policy systems); TdNucaDryRun is not supported.
  /// @p rec (optional) observes only, as in TiledSystem.
  MultiProgramSystem(system::SystemConfig cfg, MixSpec mix,
                     MultiOptions opts = {}, obs::Recorder* rec = nullptr);
  ~MultiProgramSystem();
  MultiProgramSystem(const MultiProgramSystem&) = delete;
  MultiProgramSystem& operator=(const MultiProgramSystem&) = delete;

  /// Instantiate every app's workload into its own runtime and offset
  /// address space. Per-app seeds are derived from @p params.seed and the
  /// app index, so two copies of the same workload never run in lockstep.
  void build(const workloads::WorkloadParams& params);

  /// Run all apps to completion; returns the mix makespan (the cycle the
  /// last app finished). @p cycle_limit guards tests against deadlock.
  Cycle run(Cycle cycle_limit = kNeverCycle);
  bool completed() const noexcept { return completed_; }

  // --- introspection ----------------------------------------------------
  unsigned num_apps() const noexcept {
    return static_cast<unsigned>(apps_.size());
  }
  mem::VirtualSpace& app_vspace(unsigned a) { return apps_.at(a)->vspace; }
  const CoreMask& app_cores(unsigned a) const { return apps_.at(a)->cores; }
  const BankMask& app_banks(unsigned a) const { return apps_.at(a)->banks; }
  const workloads::WorkloadStats& app_workload_stats(unsigned a) const {
    return apps_.at(a)->workload->stats();
  }

  sim::EventQueue& events() noexcept { return machine_.events(); }
  coherence::CoherentSystem& caches() noexcept { return machine_.caches(); }
  const system::SystemConfig& config() const noexcept {
    return machine_.config();
  }
  const MultiOptions& options() const noexcept { return opts_; }
  fault::FaultInjector* fault_injector() noexcept {
    return machine_.fault_injector();
  }
  /// The liveness watchdog, built and armed by run() when
  /// config().fault.watchdog_budget > 0 (null before run() and when off).
  fault::Watchdog* watchdog() noexcept { return machine_.watchdog(); }

  /// Global keys mirror TiledSystem::collect_stats; per-app metrics are
  /// namespaced appK.* (appK.sim.cycles, appK.llc.requests, ...), and the
  /// colocation aggregates live under multi.* — see docs/multiprog.md.
  stats::Registry collect_stats() const;

 private:
  struct App {
    explicit App(Addr vspace_base) : vspace(vspace_base) {}
    std::string workload_name;
    mem::VirtualSpace vspace;
    CoreMask cores;
    BankMask banks;  ///< empty in Shared mode (whole LLC)
    system::PolicySet* policies = nullptr;  ///< owned by the machine
    system::Program program;
    std::unique_ptr<workloads::Workload> workload;
  };

  void register_observability();

  MultiOptions opts_;
  // Declared before machine_, so the router outlives the hierarchy that
  // refers to it.
  std::unique_ptr<AppRouter> router_;
  system::Machine machine_;
  std::vector<std::unique_ptr<App>> apps_;

  bool built_ = false;
  bool completed_ = false;
};

}  // namespace tdn::multi
