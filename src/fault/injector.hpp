// FaultInjector — executes a FaultPlan against a live system.
//
// arm() schedules one *real* event per plan entry (faults are part of the
// simulated machine's history, so they participate in event accounting and
// must be identical across serial/parallel sweep runs). When an event fires
// the injector mutates the shared HealthState and drives the immediate
// recovery actions: evacuating a failed bank, healing every core's RRT,
// scrubbing a corrupted RRT entry after a detection delay, or stalling a
// memory controller. All randomness (which entry a soft error hits, which
// mask bit flips) comes from a SplitMix64 seeded by the plan's canonical
// string and the configured seed — runs are bit-reproducible and
// cache-fingerprintable.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "fault/fault_plan.hpp"
#include "fault/health.hpp"

namespace tdn::sim {
class EventQueue;
}
namespace tdn::noc {
class Mesh;
class Network;
}
namespace tdn::coherence {
class CoherentSystem;
}
namespace tdn::mem {
class MemControllers;
}
namespace tdn::nuca {
class TdNucaPolicy;
}
namespace tdn::obs {
class Recorder;
}

namespace tdn::fault {

/// Knobs carried inside system::SystemConfig. The plan, seed and scrub delay
/// alter simulation results and feed the config fingerprint; the watchdog
/// budget and invariant toggle are observers and deliberately do not.
struct FaultConfig {
  std::string plan;                ///< DSL spec; empty = no faults
  std::uint64_t seed = 0x7dfb2c9a;  ///< injector PRNG seed
  Cycle rrt_scrub_delay = 2000;    ///< corruption-detection latency before
                                   ///< the runtime scrubs the damaged range
  Cycle watchdog_budget = 0;       ///< no-progress window; 0 = watchdog off
  bool check_invariants = true;    ///< end-of-run InvariantChecker
};

class FaultInjector {
 public:
  struct Targets {
    sim::EventQueue* eq = nullptr;
    const noc::Mesh* mesh = nullptr;
    noc::Network* net = nullptr;
    coherence::CoherentSystem* caches = nullptr;
    mem::MemControllers* mcs = nullptr;
    nuca::TdNucaPolicy* tdnuca = nullptr;  ///< may be null (S-NUCA / R-NUCA)
    obs::Recorder* rec = nullptr;          ///< may be null
  };

  FaultInjector(FaultPlan plan, FaultConfig cfg, Targets t, unsigned num_banks,
                unsigned line_size);

  /// Schedule every plan event. Call once, before the event loop runs.
  void arm();

  /// Checkpoint-restore arming (tdn::ckpt): rebuild the injector's effect
  /// on a freshly constructed machine resuming at cycle @p resume.
  ///
  ///  * Events with `at <= resume` already fired in the snapshotted lineage
  ///    (plan events are scheduled before any periodic chain, so they win
  ///    same-cycle ties against the checkpoint marker). They are REPLAYED as
  ///    pure state mutations — health topology (failed/slowed banks, dead
  ///    and degraded links) and DRAM stall horizons still reaching past the
  ///    boundary (`inject_stall(at + length)`). No events are scheduled, no
  ///    bank evacuation runs (the cold arrays hold nothing to evacuate; the
  ///    snapshotted lineage already paid those flushes), and nothing is
  ///    recorded to the trace.
  ///  * Events with `at > resume` are scheduled normally, exactly as arm()
  ///    would have.
  ///
  /// RRT soft-error events replay as no-ops against the cold (empty) tables;
  /// serving has no RRT target and rejects them wherever it has RRTs, so
  /// this loses nothing. Call after EventQueue::fast_forward(resume).
  void arm_from(Cycle resume);

  /// Plan events scheduled but not yet applied — quiescence detection
  /// subtracts these from the pending-event census (a scheduled fault is
  /// expected future work, not an in-flight transaction).
  std::size_t plan_pending() const noexcept { return plan_pending_; }

  HealthState& health() noexcept { return health_; }
  const HealthState& health() const noexcept { return health_; }
  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  void apply(const FaultEvent& ev, std::size_t index);
  /// State-mutation-only replay of one already-fired event (see arm_from).
  void replay(const FaultEvent& ev, Cycle resume);
  /// Fail or degrade both directions of a LinkFail/LinkDegrade event's link.
  void set_link(const FaultEvent& ev);
  void scrub_rrt(CoreId core, AddrRange prange);
  void record(const FaultEvent& ev);

  FaultPlan plan_;
  FaultConfig cfg_;
  Targets t_;
  HealthState health_;
  std::uint64_t seed_base_;
  bool armed_ = false;
  std::size_t plan_pending_ = 0;
};

}  // namespace tdn::fault
