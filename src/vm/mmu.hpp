// Per-core MMU — the single translation front-end the timing core and the
// runtime's ISA-path translation talk to.
//
// One path serves both memory models. A TlbHierarchy whose entries carry
// the physical frame answers hits without the page table; a miss maps the
// page through PageTable::touch_page (a first touch allocates) and fills
// the TLB. The models differ only in the TLB's geometry, fixed at
// construction, and in what a miss costs:
//  * legacy (vm.enabled == false, the default): one `tlb.entries`-entry
//    array of base pages, and a flat `tlb.miss_penalty`; translate() always
//    answers synchronously;
//  * vm: split-L1 + unified-L2 TLB, and a radix walk by vm::PageWalker
//    whose PTE loads travel the real cache hierarchy; translate() becomes
//    asynchronous on a miss. charge_translation() keeps the ISA path
//    synchronous by charging a deterministic walk cost while firing the
//    walk's loads in the background.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/types.hpp"
#include "mem/page_table.hpp"
#include "obs/latency_histogram.hpp"
#include "vm/config.hpp"
#include "vm/page_walker.hpp"
#include "vm/tlb_hierarchy.hpp"

namespace tdn::vm {

class Mmu {
 public:
  /// @p caches may be null only when @p vm is disabled (tests building
  /// legacy-mode Mmus without a cache hierarchy).
  Mmu(CoreId core, sim::EventQueue& eq, coherence::CoherentSystem* caches,
      mem::PageTable& pt, const mem::TlbConfig& legacy_cfg,
      const VmConfig& vm);

  /// Translate @p vaddr for a demand access, allocating the page on first
  /// touch. @p done receives (translation cycles, physical address); it is
  /// invoked synchronously on a TLB hit (and always, in legacy mode), and
  /// only a vm-mode miss wraps it in a std::function for the page walk.
  template <typename Done>
  void translate(Addr vaddr, Done&& done) {
    Cycle cycles = 0;
    Addr paddr = 0;
    if (translate_now(vaddr, cycles, paddr)) {
      done(cycles, paddr);
    } else {
      walk(vaddr, cycles, std::forward<Done>(done));
    }
  }

  /// Synchronous translation charge for the runtime's ISA path (the
  /// iterative tdnuca_register walk executes under the runtime lock).
  /// Returns the cycle cost; fills TLB/PSC state as a side effect.
  Cycle charge_translation(Addr vaddr);

  /// TLB shootdown for the page covering @p vaddr (also drops the walker's
  /// cached PDE, which is empty in legacy mode).
  void invalidate_page(Addr vaddr);
  /// Checkpoint cold-normalization: drop every cached translation — TLB
  /// entries and the walker's paging-structure caches — WITHOUT
  /// counting shootdowns. The continuing lineage must end up in the same
  /// state as a freshly restored one, and a restored lineage's TLBs start
  /// empty, so counting here would make the shootdown metric depend on
  /// occupancy at the checkpoint and break resume bit-identity.
  void ckpt_cold_reset();

  // --- statistics (the L2 and walker counters stay 0 in legacy mode) -----
  std::uint64_t tlb_hits() const noexcept { return tlbs_.hits(); }
  std::uint64_t tlb_misses() const noexcept { return tlbs_.misses(); }
  std::uint64_t tlb_shootdowns() const noexcept { return tlbs_.shootdowns(); }
  std::uint64_t l2_tlb_hits() const noexcept { return tlbs_.l2_hits(); }
  std::uint64_t walks() const noexcept { return walker_.walks(); }
  std::uint64_t walk_loads() const noexcept { return walker_.walk_loads(); }
  Cycle walk_cycles() const noexcept { return walker_.walk_cycles(); }
  Cycle charge_walk_cycles() const noexcept { return walker_.charge_cycles(); }
  std::uint64_t psc_hits() const noexcept { return walker_.psc_hits(); }

  /// Observability sinks (null = off): per-translation latency and
  /// per-demand-walk cycles, feeding the tdn-obs-report-v1 translation
  /// section. Wired by the system when a latency report is requested;
  /// never feeds back into timing.
  void set_obs_sinks(obs::LatencyHistogram* translation,
                     obs::LatencyHistogram* walk) {
    obs_translation_ = translation;
    obs_walk_ = walk;
  }

 private:
  /// Every translation but a vm-mode TLB miss completes here: returns true
  /// with its cycles and physical address. On a vm-mode miss returns false
  /// with @p cycles set to the TLB probe, and the caller starts the walk.
  bool translate_now(Addr vaddr, Cycle& cycles, Addr& paddr);
  /// The vm-mode miss path: map the page and walk; @p done fires when the
  /// walk's PTE loads return.
  void walk(Addr vaddr, Cycle probe, std::function<void(Cycle, Addr)> done);
  void observe(Cycle translation_cycles) {
    if (obs_translation_ != nullptr) obs_translation_->add(translation_cycles);
  }

  mem::PageTable& pt_;
  VmConfig vm_;
  Cycle miss_penalty_;  // legacy miss cost
  TlbHierarchy tlbs_;
  PageWalker walker_;   // vm miss cost
  obs::LatencyHistogram* obs_translation_ = nullptr;
  obs::LatencyHistogram* obs_walk_ = nullptr;
};

}  // namespace tdn::vm
