// In-order timing core.
//
// Executes a TaskProgram against the coherent cache hierarchy: loads block
// the core until the fill returns; stores retire through a small store
// buffer that drains in the background (the core stalls only when the buffer
// is full). Arithmetic is charged as per-touch compute cycles. This exposes
// the same memory-latency sensitivity as the paper's out-of-order cores
// without modelling ILP (DESIGN.md substitution table).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "coherence/coherent_system.hpp"
#include "common/types.hpp"
#include "core/access_stream.hpp"
#include "mem/page_table.hpp"
#include "sim/event_queue.hpp"
#include "stats/counters.hpp"
#include "vm/mmu.hpp"

namespace tdn::core {

struct CoreConfig {
  unsigned store_buffer_entries = 8;
  Cycle store_issue_cost = 1;  ///< cycles to slot a store into the buffer
  /// Maximum overlapped outstanding loads. The paper's 4-wide OoO cores with
  /// 128-entry ROBs overlap many stream misses; a load window of 8 gives the
  /// in-order timing core equivalent memory-level parallelism on the
  /// streaming kernels of the suite (set to 1 for fully blocking loads).
  unsigned load_window = 8;
  Cycle load_issue_cost = 1;
};

class SimCore {
 public:
  SimCore(CoreId id, sim::EventQueue& eq, coherence::CoherentSystem& caches,
          mem::PageTable& pt, CoreConfig cfg = {},
          mem::TlbConfig tlb_cfg = {}, vm::VmConfig vm_cfg = {});

  CoreId id() const noexcept { return id_; }

  /// Execute @p prog; @p done fires when every access (including buffered
  /// stores) has completed. The core must be idle.
  void execute(const TaskProgram& prog, std::function<void()> done);

  /// Occupy the core with non-memory work for @p cycles (runtime-system
  /// overhead, TD-NUCA ISA instruction execution). The core must be idle.
  void busy(Cycle cycles, std::function<void()> done);

  /// Reservation — the runtime marks a core taken for the whole task
  /// lifecycle (dispatch overhead + hooks + execution), so the dispatcher
  /// never double-books it between those stages.
  void reserve() {
    TDN_REQUIRE(!reserved_, "core is already reserved");
    reserved_ = true;
  }
  void release() {
    TDN_REQUIRE(reserved_, "core is not reserved");
    reserved_ = false;
  }
  bool idle() const noexcept { return !running_ && !reserved_; }
  /// Translation front-end: legacy flat TLB or the tdn::vm two-level
  /// TLB + page walker, per the VmConfig this core was built with.
  vm::Mmu& mmu() noexcept { return mmu_; }

  // --- statistics ------------------------------------------------------
  std::uint64_t loads() const noexcept { return loads_.value(); }
  std::uint64_t stores() const noexcept { return stores_.value(); }
  Cycle busy_cycles() const noexcept { return busy_cycles_; }
  Cycle task_cycles() const noexcept { return task_cycles_; }
  /// Ideal (stall-free) cycles of the most recently executed program:
  /// per-touch compute + TLB + issue costs, with every memory access an L1
  /// hit. The obs critical-path analysis splits the executed span into this
  /// plus memory stall. Valid after execute()'s done callback fires.
  Cycle task_ideal_cycles() const noexcept { return task_ideal_; }
  std::uint64_t store_buffer_stalls() const noexcept {
    return sb_stalls_.value();
  }
  std::uint64_t load_window_stalls() const noexcept {
    return lw_stalls_.value();
  }

 private:
  void step();
  void issue_load(const AccessOp& op, Addr paddr);
  void issue_store(const AccessOp& op, Addr paddr);
  void finish_if_drained();

  CoreId id_;
  sim::EventQueue& eq_;
  coherence::CoherentSystem& caches_;
  mem::PageTable& pt_;
  CoreConfig cfg_;
  vm::Mmu mmu_;

  // Execution state for the in-flight program.
  bool running_ = false;
  bool reserved_ = false;
  const TaskProgram* prog_ = nullptr;
  std::unique_ptr<AccessStream> stream_;
  std::function<void()> done_;
  unsigned stores_in_flight_ = 0;
  unsigned loads_in_flight_ = 0;
  bool stream_exhausted_ = false;
  bool stalled_on_store_buffer_ = false;
  bool stalled_on_load_window_ = false;
  sim::Action resume_store_;
  sim::Action resume_load_;
  Cycle task_start_ = 0;
  Cycle task_ideal_ = 0;

  stats::Counter loads_;
  stats::Counter stores_;
  stats::Counter sb_stalls_;
  stats::Counter lw_stalls_;
  Cycle busy_cycles_ = 0;
  Cycle task_cycles_ = 0;
};

}  // namespace tdn::core
