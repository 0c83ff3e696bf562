// RuntimeSystem — the task dataflow runtime (Nanos++/OmpSs substitution).
//
// Execution model (paper Sec. II-D): the program first creates all its tasks
// in program order; the runtime inserts them into the TDG by analysing their
// in/out/inout dependencies; ready tasks are then dynamically scheduled onto
// idle cores and executed asynchronously until the graph drains.
//
// TD-NUCA plugs in through RuntimeHooks: placement decisions run after a
// task is scheduled to a core but before it executes, and end-of-task
// flush/invalidate sequences run after it completes (Sec. III-C2).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/types.hpp"
#include "core/sim_core.hpp"
#include "runtime/dependency.hpp"
#include "runtime/hooks.hpp"
#include "runtime/region_map.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"
#include "sim/event_queue.hpp"
#include "stats/counters.hpp"

namespace tdn::obs {
class Recorder;
}

namespace tdn::runtime {

struct RuntimeConfig {
  /// Scheduling/bookkeeping cycles charged to a core per task dispatch.
  Cycle dispatch_overhead = 200;
  /// Extra per-dependency bookkeeping cycles at dispatch (RTCacheDirectory
  /// maintenance is charged separately by the TD-NUCA hooks).
  Cycle per_dep_overhead = 20;
  /// Random extra dispatch cycles in [0, jitter): models lock contention
  /// inside the runtime and breaks the perfect core/task symmetry a
  /// deterministic simulator would otherwise exhibit — with zero jitter,
  /// FIFO dispatch re-assigns iteration i's task to the same core every
  /// iteration, which no real dynamic scheduler does (and which would
  /// unrealistically flatter OS page classification).
  Cycle dispatch_jitter = 64;
  std::uint64_t jitter_seed = 0x5eed5eed;
};

class RuntimeSystem {
 public:
  /// @p cores is the set this runtime may schedule on, in strictly
  /// increasing id order. It need not be contiguous or start at id 0: a
  /// multiprogram system (tdn::multi) gives each app's runtime a partition
  /// of the machine's cores. Task::ran_on always records the *global* core
  /// id. @p rec (optional) receives one trace span per executed task plus
  /// phase-transition instants; it observes only and never alters timing.
  RuntimeSystem(sim::EventQueue& eq, std::vector<core::SimCore*> cores,
                Scheduler& sched, RuntimeHooks& hooks, RuntimeConfig cfg = {},
                obs::Recorder* rec = nullptr);

  // --- program construction (the "create all tasks" phase) -------------
  /// Register a dependency region; returns its id. Regions are matched by
  /// identity, exactly as task-dataflow runtimes match dependencies by
  /// their (start address, size): registering the same range twice returns
  /// the same id, while overlapping-but-different ranges are distinct
  /// dependencies. This identity is what the TD-NUCA reuse predictor keys
  /// its UseDesc counters on.
  DepId region(AddrRange vrange, std::string name = {});
  const Dependency& dep(DepId id) const { return deps_.at(id); }
  std::size_t num_deps() const noexcept { return deps_.size(); }

  /// Create a task with its dependency accesses and access program.
  /// Dataflow edges against earlier tasks are derived automatically.
  TaskId create_task(std::string label, std::vector<DepAccess> accesses,
                     core::TaskProgram program);

  /// Global synchronization point (OpenMP taskwait / barrier). Tasks created
  /// afterwards belong to the next phase: they cannot start until every
  /// earlier task completes, and — crucially for TD-NUCA's reuse predictor —
  /// they are not visible in the TDG until the phase opens, exactly as in
  /// the real execution model where the creating thread is blocked at the
  /// barrier (paper Sec. II-D). Iterative benchmarks with per-iteration
  /// taskwaits therefore predict almost everything as not-reused (Fig. 3).
  void taskwait();

  // --- execution --------------------------------------------------------
  /// Start dispatching; @p on_complete fires when every task is done.
  /// Drive the event queue (eq.run()) after calling this.
  void run(std::function<void()> on_complete);

  // --- introspection ----------------------------------------------------
  const std::vector<Task>& tasks() const noexcept { return tasks_; }
  Task& task(TaskId id) { return tasks_.at(id); }
  std::size_t tasks_completed() const noexcept { return completed_; }
  Cycle makespan() const noexcept { return makespan_; }
  unsigned num_cores() const noexcept {
    return static_cast<unsigned>(cores_.size());
  }

  std::size_t num_phases() const noexcept { return phases_.size(); }

 private:
  void dispatch_idle_cores();
  void start_on_core(Task& t, core::SimCore& core);
  void complete_task(Task& t);
  void open_phase(std::size_t p);
  core::SimCore& core_by_id(CoreId id);

  sim::EventQueue& eq_;
  std::vector<core::SimCore*> cores_;
  Scheduler& sched_;
  RuntimeHooks& hooks_;
  RuntimeConfig cfg_;
  obs::Recorder* rec_;

  std::vector<Dependency> deps_;
  std::map<std::pair<Addr, Addr>, DepId> dep_by_range_;
  std::vector<Task> tasks_;
  RegionMap regions_;

  struct Phase {
    std::size_t first_task = 0;
    std::size_t count = 0;
    std::size_t remaining = 0;
  };
  std::vector<Phase> phases_{Phase{}};
  std::size_t open_phase_ = 0;

  bool running_ = false;
  std::size_t completed_ = 0;
  Cycle makespan_ = 0;
  SplitMix64 jitter_{0};
  std::function<void()> on_complete_;
};

}  // namespace tdn::runtime
