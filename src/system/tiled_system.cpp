#include "system/tiled_system.hpp"

#include <string>

#include "common/require.hpp"
#include "obs/recorder.hpp"

namespace tdn::system {

TiledSystem::TiledSystem(SystemConfig cfg, obs::Recorder* rec)
    : machine_(cfg, rec) {
  // One program: the hierarchy consults its policy directly.
  policies_ = &machine_.add_policies();
  machine_.build(*policies_->active, policies_->tdnuca.get());
  program_ = machine_.make_program(
      policies_->tdnuca.get(), CoreMask::first_n(cfg.num_cores()), 0);
  if (rec != nullptr) register_observability();
}

void TiledSystem::register_observability() {
  obs::Recorder& rec = *machine_.recorder();
  if (nuca::TdNucaPolicy* td = policies_->tdnuca.get()) {
    for (unsigned c = 0; c < config().num_cores(); ++c) {
      rec.add_series("rrt.core" + std::to_string(c) + ".entries", [td, c] {
        return static_cast<double>(td->rrt(c).size());
      });
    }
  }
  rec.add_series("runtime.ready_tasks", [this] {
    return static_cast<double>(program_.scheduler->size());
  });
  rec.add_series("tasks.completed", [this] {
    return static_cast<double>(program_.rt->tasks_completed());
  });
}

TiledSystem::~TiledSystem() = default;

Cycle TiledSystem::run(Cycle cycle_limit) {
  completed_ = false;
  machine_.arm();
  if (fault::Watchdog* wd = machine_.arm_watchdog(
          [this] { return program_.rt->tasks_completed(); })) {
    wd->add_diagnostic("runtime", [this] { return program_.describe(); });
  }
  program_.rt->run([this] { completed_ = true; });
  machine_.events().run_until(cycle_limit);
  TDN_REQUIRE(completed_, "simulation drained without completing all tasks");
  machine_.check_invariants(policies_->tdnuca.get(), program_.hooks_td);
  return program_.rt->makespan();
}

stats::Registry TiledSystem::collect_stats() const {
  stats::Registry r;
  r.set("sim.cycles", static_cast<double>(program_.rt->makespan()));
  r.set("tasks.completed",
        static_cast<double>(program_.rt->tasks_completed()));
  machine_.add_stats(r);
  machine_.add_bank_stats(r);
  machine_.add_core_stats(r);
  if (const nuca::TdNucaPolicy* td = policies_->tdnuca.get()) {
    r.set("rrt.mean_occupancy", td->mean_rrt_occupancy());
    r.set("rrt.max_occupancy", static_cast<double>(td->max_rrt_occupancy()));
    r.set("rrt.lookups",
          static_cast<double>(td->rrt_hits() + td->rrt_misses()));
  }
  if (const tdnuca::TdNucaRuntimeHooks* h = program_.hooks_td) {
    r.set("tdnuca.bypass_placements",
          static_cast<double>(h->bypass_placements()));
    r.set("tdnuca.local_placements",
          static_cast<double>(h->local_placements()));
    r.set("tdnuca.replicated_placements",
          static_cast<double>(h->replicated_placements()));
    r.set("tdnuca.runtime_overhead_cycles",
          static_cast<double>(h->runtime_overhead_cycles()));
    r.set("tdnuca.translate_pages",
          static_cast<double>(h->translate_pages()));
    r.set("tdnuca.translate_cycles",
          static_cast<double>(h->translate_cycles()));
  }
  if (const nuca::RNucaPolicy* rn = policies_->rnuca.get()) {
    const auto c = rn->census();
    r.set("rnuca.private_pages", static_cast<double>(c.private_pages));
    r.set("rnuca.shared_ro_pages", static_cast<double>(c.shared_ro_pages));
    r.set("rnuca.shared_pages", static_cast<double>(c.shared_pages));
  }
  machine_.add_fault_stats(r);
  return r;
}

}  // namespace tdn::system
