// TiledSystem — the front-end for closed runs: task-dataflow programs run to
// completion on one system::Machine, the mesh, NoC, memory controllers, page
// table, NUCA policies, coherent cache hierarchy and timing cores the
// selected PolicyKind calls for. This is the top-level object workloads and
// the benchmark harness interact with.
//
// The number of programs picks the path:
//
//  * One program (the paper's setting, from either constructor): every
//    core maps through the program's policy, the program runs on every
//    core, and its TD-NUCA policy is the fault injector's RRT target.
//  * N colocated programs (a multi::MixSpec of two or more apps; DESIGN.md
//    Sec. 3, docs/multiprog.md): each app gets a row partition of the cores
//    (and, in Partitioned mode, of the LLC banks), an offset virtual address
//    space (mix.hpp's kAppStride keeps streams alias-free), its own policy
//    set and program. The CoherentSystem's app view maps each app's cores
//    through the app's policy and provides per-app LLC counters and
//    inter-app bank-conflict accounting. Each app owns its own RRT set, so
//    the fault injector targets none of them.
//
// Determinism: one single-threaded event loop drives every program, and
// per-app PRNG seeds derive from the app index alone, so runs are
// bit-identical across repetitions and SweepRunner job counts.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "multi/mix.hpp"
#include "system/machine.hpp"
#include "workloads/workload.hpp"

namespace tdn::system {

class TiledSystem {
 public:
  /// One program over the whole machine; the caller builds its task graph
  /// through vspace() and runtime() (Workload::build does).
  ///
  /// @p rec (optional) is wired through every layer at construction: the
  /// runtime, TD-NUCA hooks and cache hierarchy emit trace events into it,
  /// and the system registers its epoch time-series probes and heatmap
  /// providers. run() arms the epoch sampler. The recorder observes only —
  /// results are bit-identical with and without one attached.
  explicit TiledSystem(SystemConfig cfg, obs::Recorder* rec = nullptr);
  /// One program per app of @p mix; call build() to create the task graphs.
  /// @p cfg.policy selects the NUCA policy *every* app runs (the colocation
  /// benchmarks compare policies, not mixed-policy systems); TdNucaDryRun
  /// needs a single app.
  TiledSystem(SystemConfig cfg, multi::MixSpec mix,
              multi::MultiOptions opts = {}, obs::Recorder* rec = nullptr);
  ~TiledSystem();
  TiledSystem(const TiledSystem&) = delete;
  TiledSystem& operator=(const TiledSystem&) = delete;

  /// Instantiate every app's workload into its own runtime and address
  /// space (mix constructor only). App a gets the seed
  /// params.seed + 1000003 * a, so two copies of one workload never run in
  /// lockstep and app 0 runs exactly what a one-program system would.
  void build(const workloads::WorkloadParams& params);

  const SystemConfig& config() const noexcept { return machine_.config(); }

  // --- the pieces workloads need (app 0's) -------------------------------
  mem::VirtualSpace& vspace() noexcept { return apps_[0]->vspace; }
  runtime::RuntimeSystem& runtime() noexcept { return *apps_[0]->program.rt; }

  // --- execution --------------------------------------------------------
  /// Run every program to completion; returns the makespan (the cycle the
  /// last program finished). @p cycle_limit guards tests against deadlock.
  Cycle run(Cycle cycle_limit = kNeverCycle);
  bool completed() const noexcept { return completed_; }

  // --- per-app introspection --------------------------------------------
  unsigned num_apps() const noexcept {
    return static_cast<unsigned>(apps_.size());
  }
  mem::VirtualSpace& app_vspace(unsigned a) { return apps_.at(a)->vspace; }
  const CoreMask& app_cores(unsigned a) const { return apps_.at(a)->cores; }
  /// The banks the app's policy maps to: every bank for one app or in
  /// Shared mode.
  const BankMask& app_banks(unsigned a) const {
    return apps_.at(a)->policies->active->bank_partition();
  }
  /// Valid after build().
  const workloads::WorkloadStats& app_workload_stats(unsigned a) const;

  // --- component access (stats, tests) ----------------------------------
  sim::EventQueue& events() noexcept { return machine_.events(); }
  const noc::Mesh& mesh() const noexcept { return machine_.mesh(); }
  noc::Network& network() noexcept { return machine_.network(); }
  coherence::CoherentSystem& caches() noexcept { return machine_.caches(); }
  mem::MemControllers& mcs() noexcept { return machine_.mcs(); }
  mem::PageTable& page_table() noexcept { return machine_.page_table(); }
  core::SimCore& core(CoreId id) { return machine_.core(id); }

  /// App 0's; non-null only for the matching PolicyKind.
  nuca::TdNucaPolicy* tdnuca_policy() noexcept {
    return apps_[0]->policies->tdnuca.get();
  }
  nuca::RNucaPolicy* rnuca_policy() noexcept {
    return apps_[0]->policies->rnuca.get();
  }
  tdnuca::TdNucaRuntimeHooks* tdnuca_hooks() noexcept {
    return apps_[0]->program.hooks_td;
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

  /// Export the run's statistics into a registry: sim.cycles,
  /// tasks.completed, the machine's keys (Machine::add_stats: the rrt.*,
  /// tdnuca.* and rnuca.* keys combine every app's) and, with two or more
  /// apps, the rest of the per-app appK.* namespaces and the multi.*
  /// colocation aggregates (docs/multiprog.md).
  stats::Registry collect_stats() const;

 private:
  struct App {
    explicit App(Addr vspace_base) : vspace(vspace_base) {}
    std::string workload_name;
    mem::VirtualSpace vspace;
    CoreMask cores;
    PolicySet* policies = nullptr;  ///< owned by the machine
    Program program;
    std::unique_ptr<workloads::Workload> workload;
  };

  bool colocated() const noexcept { return apps_.size() > 1; }
  std::size_t tasks_completed() const;  ///< summed over the apps
  Cycle makespan() const;               ///< the last app's finish cycle
  void register_observability();

  multi::MultiOptions opts_;
  Machine machine_;
  std::vector<std::unique_ptr<App>> apps_;
  bool built_ = false;  ///< task graphs exist (or are the caller's to build)
  unsigned running_ = 0;  ///< programs run() has not seen finish
  bool completed_ = false;
};

}  // namespace tdn::system
