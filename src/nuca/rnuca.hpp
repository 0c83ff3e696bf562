// R-NUCA (Reactive NUCA, Hardavellas et al. ISCA'09) — the state-of-the-art
// competitor the paper evaluates against, including the paper's enhancement
// (Sec. V): shared *read-only data* pages are replicated like instruction
// pages, not only classified.
//
// OS page classification (paper Sec. II-C):
//   * first touch            -> Private(owner = accessing core)
//   * access by another core -> Shared (or SharedRO if never written);
//     the page is flushed from the previous owner's caches and its TLB
//     entry is shot down,
//   * write to a SharedRO page -> Shared; the page is flushed from all
//     caches (consistent with R-NUCA's private->shared flush approach).
// Once Shared, a page never returns to Private — the key limitation under
// dynamic task schedulers that TD-NUCA exploits.
//
// Placement:
//   * Private   -> the owner's local LLC bank,
//   * Shared    -> standard address interleaving across the policy's
//                  partition (every bank unless a front-end narrows it),
//   * SharedRO  -> degree-4 rotational interleaving. With rotational ids
//     rid(x,y) = (x mod 2) + 2*(y mod 2), the tile with a given rid inside
//     the requester's aligned 2x2 neighbourhood is unique, so degree-4
//     rotational interleaving is exactly the aligned-quadrant cluster
//     interleave implemented by tdnuca::ClusterMap.
//
// Instruction fetch is not modelled (data-only simulator), matching the
// figures that evaluate data placement.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "mem/page_table.hpp"
#include "noc/mesh.hpp"
#include "nuca/mapping.hpp"
#include "nuca/snuca.hpp"
#include "stats/counters.hpp"
#include "tdnuca/cluster_map.hpp"
#include "vm/mmu.hpp"

namespace tdn::nuca {

enum class PageClass : std::uint8_t { Private, SharedRO, Shared };

class RNucaPolicy final : public MappingPolicy {
 public:
  RNucaPolicy(const noc::Mesh& mesh, unsigned num_banks, mem::PageTable& pt);

  const char* name() const override { return "R-NUCA"; }

  /// The per-core MMUs whose TLBs are shot down on reclassification
  /// (index = core id). Optional: without them no TLB state changes.
  void set_mmus(std::vector<vm::Mmu*> mmus) { mmus_ = std::move(mmus); }

  void on_access(CoreId core, Addr vaddr, AccessKind kind) override;
  MapDecision map(CoreId core, Addr vaddr, Addr paddr,
                  AccessKind kind) override;

  // --- classification census (Fig. 3 left bars) -----------------------
  struct Census {
    std::uint64_t private_pages = 0;
    std::uint64_t shared_ro_pages = 0;
    std::uint64_t shared_pages = 0;
    std::uint64_t total() const {
      return private_pages + shared_ro_pages + shared_pages;
    }
  };
  Census census() const;

  std::uint64_t reclassifications() const noexcept {
    return reclassifications_.value();
  }

  // --- checkpoint cold-normalization (tdn::ckpt) ------------------------
  /// Drop every page classification. Run at a quiescent checkpoint
  /// boundary in both lineages: the restored run's page table starts
  /// unmapped, so stale classifications keyed by retired vpages must not
  /// survive either.
  void ckpt_reset() { pages_.clear(); }

 private:
  struct PageState {
    PageClass cls = PageClass::Private;
    CoreId owner = kInvalidCore;
    bool written = false;
  };

  /// Flush the physical blocks of a virtual page from the given cores' L1s
  /// and LLC banks (fire-and-forget: the faulting core does not wait for it).
  void flush_page(Addr page_base, CoreMask cores, BankMask banks);

  mem::PageTable& pt_;
  tdnuca::ClusterMap clusters_;
  std::vector<vm::Mmu*> mmus_;
  /// Classification state, keyed by the *actual* page base the page table
  /// mapped (4K in legacy mode; 4K/2M under tdn::vm) — so huge pages
  /// visibly coarsen R-NUCA's grain: one touch classifies the whole page,
  /// and mixed In/Out data inside it collapses into one class.
  std::unordered_map<Addr, PageState> pages_;
  stats::Counter reclassifications_;
};

}  // namespace tdn::nuca
