#include "runtime/runtime_system.hpp"

#include <algorithm>
#include <sstream>

#include "common/require.hpp"
#include "obs/recorder.hpp"

namespace tdn::runtime {

RuntimeSystem::RuntimeSystem(sim::EventQueue& eq,
                             std::vector<core::SimCore*> cores,
                             Scheduler& sched, RuntimeHooks& hooks,
                             RuntimeConfig cfg, obs::Recorder* rec)
    : eq_(eq), cores_(std::move(cores)), sched_(sched), hooks_(hooks),
      cfg_(cfg), rec_(rec), jitter_(cfg.jitter_seed) {
  TDN_REQUIRE(!cores_.empty(), "runtime needs at least one core");
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    TDN_REQUIRE(cores_[i] != nullptr, "null core");
    TDN_REQUIRE(i == 0 || cores_[i]->id() > cores_[i - 1]->id(),
                "cores must be passed in strictly increasing id order");
  }
}

core::SimCore& RuntimeSystem::core_by_id(CoreId id) {
  for (core::SimCore* c : cores_) {
    if (c->id() == id) return *c;
  }
  TDN_REQUIRE(false, "task ran on a core this runtime does not own");
  return *cores_.front();
}

DepId RuntimeSystem::region(AddrRange vrange, std::string name) {
  TDN_REQUIRE(!vrange.empty(), "dependency region must be non-empty");
  const auto key = std::make_pair(vrange.begin, vrange.end);
  auto it = dep_by_range_.find(key);
  if (it != dep_by_range_.end()) return it->second;
  const DepId id = deps_.size();
  deps_.push_back(Dependency{id, vrange, std::move(name)});
  dep_by_range_.emplace(key, id);
  return id;
}

TaskId RuntimeSystem::create_task(std::string label,
                                  std::vector<DepAccess> accesses,
                                  core::TaskProgram program) {
  TDN_REQUIRE(!running_, "cannot create tasks after run() started");
  const TaskId id = tasks_.size();
  Task t;
  t.id = id;
  t.label = std::move(label);
  t.deps = std::move(accesses);
  t.program = std::move(program);

  // Derive dataflow edges. Reads are registered before writes so an inout
  // access does not create a self-edge.
  std::vector<TaskId> preds;
  auto merge = [&](const std::vector<TaskId>& more) {
    for (TaskId p : more)
      if (std::find(preds.begin(), preds.end(), p) == preds.end())
        preds.push_back(p);
  };
  for (const DepAccess& a : t.deps) {
    const Dependency& d = deps_.at(a.dep);
    if (a.reads()) merge(regions_.access(d.vrange, id, /*write=*/false));
    if (a.writes()) merge(regions_.access(d.vrange, id, /*write=*/true));
  }
  t.predecessors = preds;
  t.unmet_predecessors = static_cast<unsigned>(preds.size());
  t.phase = phases_.size() - 1;
  tasks_.push_back(std::move(t));
  for (TaskId p : preds) tasks_[p].successors.push_back(id);
  ++phases_.back().count;
  ++phases_.back().remaining;
  // Note: hooks_.on_task_created fires when the task's phase opens, not
  // here — the runtime cannot see tasks beyond the next taskwait.
  return id;
}

void RuntimeSystem::taskwait() {
  TDN_REQUIRE(!running_, "cannot add phases after run() started");
  if (phases_.back().count == 0) return;  // empty phase: coalesce
  phases_.push_back(Phase{tasks_.size(), 0, 0});
}

void RuntimeSystem::run(std::function<void()> on_complete) {
  TDN_REQUIRE(!running_, "run() may only be called once");
  running_ = true;
  on_complete_ = std::move(on_complete);
  if (tasks_.empty()) {
    auto done = std::move(on_complete_);
    if (done) done();
    return;
  }
  open_phase(0);
  dispatch_idle_cores();
}

void RuntimeSystem::open_phase(std::size_t p) {
  TDN_ASSERT(p < phases_.size());
  open_phase_ = p;
  const Phase& ph = phases_[p];
  if (rec_ != nullptr && rec_->trace_on()) {
    rec_->instant(obs::Recorder::kRuntimeTrack, "runtime",
                  "phase " + std::to_string(p),
                  "\"tasks\":" + std::to_string(ph.count));
  }
  // The creating thread resumes past the barrier: the phase's tasks become
  // visible to the runtime (and to TD-NUCA's UseDesc counters) only now.
  for (std::size_t i = ph.first_task; i < ph.first_task + ph.count; ++i)
    hooks_.on_task_created(tasks_[i]);
  for (std::size_t i = ph.first_task; i < ph.first_task + ph.count; ++i) {
    Task& t = tasks_[i];
    if (t.unmet_predecessors == 0) {
      t.state = TaskState::Ready;
      t.ready_at = eq_.now();
      sched_.enqueue(t);
    }
  }
}

void RuntimeSystem::dispatch_idle_cores() {
  // Gather the idle cores and hand out tasks in random order: idle workers
  // race on the central ready queue, and which one wins a task is
  // effectively arbitrary. This task migration across cores is inherent to
  // dynamic schedulers — and is precisely what defeats OS page
  // classification (paper Sec. II-C).
  std::vector<core::SimCore*> idle;
  idle.reserve(cores_.size());
  for (core::SimCore* c : cores_) {
    if (c->idle()) idle.push_back(c);
  }
  while (!idle.empty()) {
    const std::size_t pick = jitter_.next_below(idle.size());
    core::SimCore* c = idle[pick];
    idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(pick));
    Task* t = sched_.dequeue(c->id());
    if (t == nullptr) return;  // central queue drained
    start_on_core(*t, *c);
  }
}

void RuntimeSystem::start_on_core(Task& t, core::SimCore& core) {
  TDN_ASSERT(t.state == TaskState::Ready);
  core.reserve();
  t.state = TaskState::Running;
  t.ran_on = core.id();
  t.started_at = eq_.now();
  Cycle overhead =
      cfg_.dispatch_overhead + cfg_.per_dep_overhead * t.deps.size();
  if (cfg_.dispatch_jitter > 0)
    overhead += jitter_.next_below(cfg_.dispatch_jitter);
  core.busy(overhead, [this, &t, &core] {
    hooks_.before_task(t, core, [this, &t, &core] {
      t.exec_started_at = eq_.now();
      core.execute(t.program, [this, &t, &core] {
        t.exec_finished_at = eq_.now();
        t.compute_cycles = core.task_ideal_cycles();
        hooks_.after_task(t, core, [this, &t] { complete_task(t); });
      });
    });
  });
}

void RuntimeSystem::complete_task(Task& t) {
  TDN_ASSERT(t.state == TaskState::Running);
  core_by_id(t.ran_on).release();
  t.state = TaskState::Done;
  t.finished_at = eq_.now();
  if (rec_ != nullptr && rec_->trace_on()) {
    std::ostringstream args;
    args << "\"id\":" << t.id << ",\"phase\":" << t.phase
         << ",\"deps\":" << t.deps.size()
         << ",\"wait\":" << (t.started_at - t.ready_at);
    rec_->span(t.ran_on, "task", t.label, t.started_at,
               t.finished_at - t.started_at, args.str());
  }
  makespan_ = std::max(makespan_, t.finished_at);
  ++completed_;
  for (TaskId s : t.successors) {
    Task& succ = tasks_[s];
    TDN_ASSERT(succ.unmet_predecessors > 0);
    if (--succ.unmet_predecessors == 0 && succ.phase <= open_phase_) {
      succ.state = TaskState::Ready;
      succ.ready_at = eq_.now();
      sched_.enqueue(succ);
    }
  }
  TDN_ASSERT(phases_[t.phase].remaining > 0);
  if (--phases_[t.phase].remaining == 0 && t.phase == open_phase_ &&
      t.phase + 1 < phases_.size()) {
    open_phase(t.phase + 1);
  }
  if (completed_ == tasks_.size()) {
    auto done = std::move(on_complete_);
    if (done) done();
    return;
  }
  dispatch_idle_cores();
}

}  // namespace tdn::runtime
