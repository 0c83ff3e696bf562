// TdNucaRuntimeHooks — the runtime-system side of TD-NUCA (paper Sec. III-C).
//
// After the scheduler binds a task to a core and before the task executes,
// the hooks walk its dependencies, decrement their UseDesc, and decide the
// placement per the Fig. 7 flowchart:
//
//     UseDesc == 0            -> LLC Bypass        (BankMask = 0 bits)
//     out / inout             -> Local LLC bank    (BankMask = 1 bit)
//     otherwise (reused in)   -> Cluster Replicated(BankMask = 4 bits)
//
// and communicate it to the hardware with tdnuca_register (charged to the
// core, including the iterative VA->PA translation through the TLB). On task
// end, Bypass and Local placements are eagerly flushed and de-registered;
// Replicated mappings stay for future readers and are lazily invalidated
// everywhere when the dependency transitions from read-only to written.
//
// The hooks run one of three tdnuca::Variants, which system::Machine picks
// from the PolicyKind: the full flowchart, bypass-only (Fig. 15: only the
// Bypass placement is applied) and the dry run (Sec. V-E runtime-overhead
// study: all the decisions and bookkeeping but no ISA instruction, so the
// cache hierarchy behaves exactly as the underlying policy, S-NUCA).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "fault/health.hpp"
#include "mem/page_table.hpp"
#include "nuca/tdnuca_policy.hpp"
#include "runtime/hooks.hpp"
#include "runtime/runtime_system.hpp"
#include "tdnuca/isa.hpp"
#include "tdnuca/rt_cache_directory.hpp"

namespace tdn::obs {
class Recorder;
}

namespace tdn::tdnuca {

/// Which of the paper's TD-NUCA configurations the hooks run.
enum class Variant : std::uint8_t {
  Full,        ///< the Fig. 7 flowchart
  BypassOnly,  ///< Fig. 15: only the Bypass placement; the rest is S-NUCA
  DryRun,      ///< Sec. V-E: decisions and bookkeeping, no ISA instruction
};

/// The hooks' counts. Their owner (system::PolicySet) outlives every
/// program whose hooks count into it, so a serving slot's requests add up.
struct HookCounters {
  std::uint64_t bypass_placements = 0;
  std::uint64_t local_placements = 0;
  std::uint64_t replicated_placements = 0;
  std::uint64_t ro_rw_transitions = 0;
  Cycle runtime_overhead_cycles = 0;
  /// Pages iterated by every ISA-path translate_range (register/invalidate/
  /// flush) — huge pages collapse this (paper Fig. 5 / docs/memory.md).
  std::uint64_t translate_pages = 0;
  /// Translation cycles (TLB probes + walks) charged on the ISA path.
  Cycle translate_cycles = 0;
};

struct HooksConfig {
  /// Decision-algorithm cycles per dependency (RTCacheDirectory lookup +
  /// placement choice) — the paper's "biggest source of overhead".
  Cycle decision_overhead = 40;
  IsaCostConfig isa{};
};

class TdNucaRuntimeHooks final : public runtime::RuntimeHooks {
 public:
  /// @p line_size is the L1 line size: only whole lines of a dependency are
  /// managed. @p rec (optional) receives one trace span per TD-NUCA ISA
  /// instruction (decision, tdnuca_register/invalidate/flush) laid
  /// back-to-back over the cycles the core is charged; it observes only and
  /// never alters timing. Every count goes to @p counters.
  TdNucaRuntimeHooks(nuca::TdNucaPolicy& policy, mem::PageTable& pt,
                     Variant variant, unsigned line_size,
                     HookCounters& counters, HooksConfig cfg = {},
                     obs::Recorder* rec = nullptr);

  /// Wire the runtime (needed to resolve DepIds); must be called before the
  /// first task is created.
  void set_runtime(runtime::RuntimeSystem* rts) { rts_ = rts; }

  /// Attach the shared resource-health view (fault injection): placement
  /// decisions then avoid failed banks. Null — the default — keeps the
  /// original Fig. 7 flowchart untouched.
  void set_health(const fault::HealthState* health) { health_ = health; }

  /// End-of-run invariant: no task holds active placements and no
  /// end-of-task flush is still in flight.
  bool quiescent() const;
  /// Number of dependency flushes still draining.
  std::uint64_t pending_flushes() const;

  void on_task_created(const runtime::Task& task) override;
  void before_task(runtime::Task& task, core::SimCore& core,
                   std::function<void()> done) override;
  void after_task(runtime::Task& task, core::SimCore& core,
                  std::function<void()> done) override;

 private:
  void before_task_clean(runtime::Task& task, core::SimCore& core,
                         std::function<void()> done);

 public:

  const RtCacheDirectory& directory() const noexcept { return dir_; }

  // --- statistics ------------------------------------------------------
  std::uint64_t bypass_placements() const noexcept {
    return counts_.bypass_placements;
  }
  std::uint64_t local_placements() const noexcept {
    return counts_.local_placements;
  }
  std::uint64_t replicated_placements() const noexcept {
    return counts_.replicated_placements;
  }
  std::uint64_t ro_rw_transitions() const noexcept {
    return counts_.ro_rw_transitions;
  }
  Cycle runtime_overhead_cycles() const noexcept {
    return counts_.runtime_overhead_cycles;
  }

 private:
  struct Translated {
    std::vector<AddrRange> pieces;
    Cycle tlb_cycles = 0;
    std::uint64_t pages = 0;
  };
  Translated translate_dep(const AddrRange& vrange, core::SimCore& core);

  struct PlacedDep {
    DepId dep;
    Placement placement;
    BankMask mask;
    std::vector<AddrRange> pieces;
    std::uint64_t pages = 0;
  };

  /// The cycles one hook charges its core and their trace spans.
  struct IsaTimeline;
  /// tdnuca_register: translate @p vrange, charge the instruction and map
  /// every physical piece to @p mask in @p core's RRT.
  Translated register_dep(IsaTimeline& tl, DepId dep, const AddrRange& vrange,
                          core::SimCore& core, BankMask mask,
                          const char* placement);
  /// Drop every RRT entry of @p cores that overlaps one of @p pieces.
  void clear_rrts(CoreMask cores, const std::vector<AddrRange>& pieces);

  /// End-of-task flushes drain asynchronously: the core moves on after the
  /// issue cost, and only a *future task touching the same dependency* must
  /// wait for completion (the runtime polls the flush-completion register
  /// right before re-registering the region). DepSync tracks in-flight
  /// flushes per dependency and queues those waiters.
  struct DepSync {
    unsigned pending = 0;
    std::vector<std::function<void()>> waiters;
  };
  void flush_started(DepId dep) { ++sync_[dep].pending; }
  void flush_finished(DepId dep);
  /// Run @p fn once no flush is in flight for any of @p deps.
  void when_clean(const std::vector<runtime::DepAccess>& deps,
                  std::function<void()> fn);

  nuca::TdNucaPolicy& policy_;
  mem::PageTable& pt_;
  Variant variant_;
  unsigned line_size_;
  HooksConfig cfg_;
  obs::Recorder* rec_;
  const fault::HealthState* health_ = nullptr;
  runtime::RuntimeSystem* rts_ = nullptr;
  RtCacheDirectory dir_;
  std::unordered_map<TaskId, std::vector<PlacedDep>> active_;
  std::unordered_map<DepId, DepSync> sync_;

  HookCounters& counts_;
};

}  // namespace tdn::tdnuca
