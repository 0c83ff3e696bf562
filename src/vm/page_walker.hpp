// Hardware page-table walker model.
//
// On a TLB miss the walker resolves the translation by issuing the radix
// walk's PTE loads as *real memory accesses* through the coherent cache
// hierarchy — they travel the NoC, can hit in LLC banks, and fall through
// to DRAM, so walk latency responds to cache pressure and NUCA distance
// instead of being a constant penalty. Paging-structure caches (PSCs, one
// small LRU per non-leaf radix level, as in x86 MMUs) let warm walks skip
// the upper levels: a walk for a 4K page costs 4 dependent loads cold but
// typically 1-2 warm.
//
// Page-table layout: the simulated kernel places each radix table at a
// deterministic pseudo-random 4K-aligned address inside [kKernelBase,
// kKernelBase + 256 MiB), derived by hashing (level, va-prefix). Entries
// are 8 bytes, so walks for neighbouring pages hit the same PTE cache
// lines — the spatial locality real walkers exploit.
//
// Two entry points mirror the two translation contexts; both fire the same
// chain of dependent PTE loads (load_chain) through the hierarchy:
//  * walk()        — demand-path TLB miss: fully event-driven, completion
//                    via callback when the last load returns.
//  * charge_walk() — ISA path (the iterative translation of the TD-NUCA
//                    instructions, executed under the runtime lock):
//                    returns a deterministic synchronous cycle charge and
//                    leaves the loads to run fire-and-forget so the
//                    hierarchy is warmed/perturbed like hardware would.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "vm/config.hpp"
#include "vm/tlb_hierarchy.hpp"

namespace tdn::sim {
class EventQueue;
}
namespace tdn::coherence {
class CoherentSystem;
}

namespace tdn::vm {

class PageWalker {
 public:
  /// @p caches may be null only when vm is disabled (the walker is then
  /// never invoked) — lets tests build legacy-mode Mmus without a system.
  PageWalker(CoreId core, sim::EventQueue& eq,
             coherence::CoherentSystem* caches, const VmConfig& cfg);

  /// Resolve the translation for an established mapping of size @p span
  /// covering @p vaddr. Issues the (PSC-shortened) chain of dependent PTE
  /// loads; @p done fires with the walk's total cycle cost when the last
  /// load returns.
  void walk(Addr vaddr, Addr span, std::function<void(Cycle)> done);

  /// Synchronous ISA-path walk: returns psc_latency + loads *
  /// walk_charge_per_level, fires the PTE loads into the hierarchy in the
  /// background, and fills the PSC as if the walk completed.
  Cycle charge_walk(Addr vaddr, Addr span);

  void invalidate_psc(Addr vaddr);
  void clear_psc();

  std::uint64_t walks() const noexcept { return walks_; }
  std::uint64_t walk_loads() const noexcept { return walk_loads_; }
  /// Demand-walk cycles measured through the hierarchy.
  Cycle walk_cycles() const noexcept { return walk_cycles_; }
  /// ISA-path walk cycles charged synchronously.
  Cycle charge_cycles() const noexcept { return charge_cycles_; }
  std::uint64_t psc_hits() const noexcept { return psc_hits_; }

 private:
  /// Radix levels are numbered 1 (leaf PTE) .. 4 (PML4E); a page of size S
  /// has its leaf entry at level 1 (4K) or 2 (2M).
  static unsigned leaf_level(Addr span);
  static Addr level_prefix(Addr vaddr, unsigned level);
  Addr pte_paddr(unsigned level, Addr vaddr) const;
  /// PTE load addresses root→leaf after PSC shortening; probes (and, via
  /// @p fill, updates) the PSCs.
  void plan_loads(Addr vaddr, Addr span, Addr out[4], unsigned& n);
  void fill_psc(Addr vaddr, Addr span);
  /// The one walk both entry points run: plan the PTE loads and fire them
  /// through the hierarchy as a dependent chain. With @p done, a demand
  /// walk: the PSCs fill when the last load returns and @p done receives
  /// the walk's cycles. Without, a charged walk: the PSCs fill at once and
  /// nothing waits for the loads. Returns the number of loads.
  unsigned load_chain(Addr vaddr, Addr span, std::function<void(Cycle)> done);

  CoreId core_;
  sim::EventQueue& eq_;
  coherence::CoherentSystem* caches_;
  VmConfig cfg_;
  TlbArray psc_l4_;  // caches PML4E: skips the level-4 load
  TlbArray psc_l3_;  // caches PDPTE: skips levels 4-3
  TlbArray psc_l2_;  // caches PDE:   skips levels 4-2
  std::uint64_t walks_ = 0;
  std::uint64_t walk_loads_ = 0;
  Cycle walk_cycles_ = 0;
  Cycle charge_cycles_ = 0;
  std::uint64_t psc_hits_ = 0;
};

}  // namespace tdn::vm
