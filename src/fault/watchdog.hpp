// Watchdog — detects a wedged simulation and reports a structured
// diagnostic dump instead of letting ctest (or a 12-hour sweep) hang.
//
// Implemented as a self-rescheduling *observer* event so arming it never
// perturbs simulation results: every `budget` cycles it compares the
// progress witness against the previous tick. If real events executed but
// the witness did not advance (a livelock: traffic circulating with no task
// or memory-system progress), it fires. Observer events are excluded from
// EventQueue::executed(), so an idle-but-sampled run can never trip it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace tdn::fault {

/// Thrown (by the default on_fire handler) when the watchdog detects no
/// forward progress; what() carries the full diagnostic dump.
class WatchdogError : public RequireError {
 public:
  explicit WatchdogError(const std::string& what) : RequireError(what) {}
};

class Watchdog {
 public:
  /// @p budget: no-progress cycle window; 0 disables the watchdog.
  Watchdog(sim::EventQueue& eq, Cycle budget) : eq_(eq), budget_(budget) {}

  /// The progress witness: any monotonically increasing counter that moves
  /// whenever the simulation does useful work (system::Machine sets memory
  /// requests retired plus the front-end's own progress count).
  void set_progress(std::function<std::uint64_t()> fn) {
    progress_ = std::move(fn);
  }

  /// Register a named diagnostic section for the dump (MSHR occupancy,
  /// per-bank queues, scheduler depth, ...).
  void add_diagnostic(std::string name, std::function<std::string()> fn) {
    diagnostics_.emplace_back(std::move(name), std::move(fn));
  }

  /// Override what happens on detection. Default throws WatchdogError with
  /// the dump; tests install a collector instead to inspect the string.
  void on_fire(std::function<void(const std::string&)> fn) {
    on_fire_ = std::move(fn);
  }

  /// Start ticking. No-op when the budget is 0.
  void arm();

  bool fired() const noexcept { return fired_; }
  std::uint64_t ticks() const noexcept { return ticks_; }

  /// Build the diagnostic dump (public so tests and the on-fire path share
  /// one formatter).
  std::string dump() const;

 private:
  void tick();

  sim::EventQueue& eq_;
  Cycle budget_;
  std::function<std::uint64_t()> progress_;
  std::vector<std::pair<std::string, std::function<std::string()>>> diagnostics_;
  std::function<void(const std::string&)> on_fire_;
  std::uint64_t last_executed_ = 0;
  std::uint64_t last_progress_ = 0;
  std::uint64_t ticks_ = 0;
  bool fired_ = false;
};

}  // namespace tdn::fault
